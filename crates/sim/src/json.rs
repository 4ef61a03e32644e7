//! JSON: the workspace's one writer, value tree and parser.
//!
//! Output goes straight into a `String` through [`ToJson`]; no value tree is
//! built on the way. The layout is serde_json's: struct fields in the order
//! an impl writes them, object keys of a [`Value`] sorted, floats in ryu's
//! shortest form (`1.0`, `0.001`, `1e-7`), non-finite floats as `null`,
//! serde_json's string escapes and its two-space pretty layout. Records,
//! journals and goldens written before this module existed keep their bytes.
//!
//! [`impl_to_json!`](crate::impl_to_json) writes the field-list impls. The
//! few types that are read back implement [`FromJson`] over a parsed
//! [`Value`], which also serves tests that look into exported JSON.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A type that writes itself as JSON.
pub trait ToJson {
    fn write_json(&self, w: &mut Writer);
}

/// The value tree of `value`, object keys sorted: for output that must
/// list a struct's fields in name order.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    parse(&to_string(value)).expect("the writer's output parses")
}

/// Compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    write(value, false)
}

/// Two-space indented JSON text.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    write(value, true)
}

fn write<T: ToJson + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer { out: String::new(), pretty, indent: 0 };
    value.write_json(&mut w);
    w.out
}

/// `impl ToJson` for a struct as an object of the listed fields, in list
/// order. A field followed by `if nonzero` (numbers) or `if nonempty`
/// (vectors) is left out when it is zero or empty; a field not listed is
/// never written.
///
/// ```ignore
/// impl_to_json!(JournalEvent { seq, label, dt, barrier_wait if nonzero, mem_delta if nonempty });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    (@field $o:ident, $key:ident, $v:expr) => {
        $o.field(stringify!($key), $v);
    };
    (@field $o:ident, $key:ident, $v:expr, $pred:ident) => {
        if $crate::json::$pred($v) {
            $o.field(stringify!($key), $v);
        }
    };
    ($ty:ty { $($field:ident $(if $pred:ident)?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::json::Writer) {
                w.object(|o| {
                    $($crate::impl_to_json!(@field o, $field, &self.$field $(, $pred)?);)*
                });
            }
        }
    };
}

/// Whether a number differs from zero (`impl_to_json!`'s `if nonzero`).
pub fn nonzero<T: PartialEq + Default>(v: &T) -> bool {
    *v != T::default()
}

/// Whether a vector has elements (`impl_to_json!`'s `if nonempty`).
pub fn nonempty<T>(v: &[T]) -> bool {
    !v.is_empty()
}

/// The output buffer with its layout state.
pub struct Writer {
    out: String,
    pretty: bool,
    indent: usize,
}

impl Writer {
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
    }

    pub fn i64(&mut self, v: i64) {
        let _ = write!(self.out, "{v}");
    }

    /// A finite float in ryu's layout; NaN and infinities as `null`.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            write_f64(&mut self.out, v);
        } else {
            self.null();
        }
    }

    pub fn str(&mut self, v: &str) {
        escape_str(&mut self.out, v);
    }

    /// An object whose members `f` writes.
    pub fn object(&mut self, f: impl FnOnce(&mut Object<'_>)) {
        self.open('{');
        let mut o = Object { w: self, first: true };
        f(&mut o);
        let first = o.first;
        self.close('}', first);
    }

    /// An array of `items`.
    pub fn array<T: ToJson>(&mut self, items: impl IntoIterator<Item = T>) {
        self.open('[');
        let mut first = true;
        for item in items {
            self.item(&mut first);
            item.write_json(self);
        }
        self.close(']', first);
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.indent += 1;
    }

    fn item(&mut self, first: &mut bool) {
        if !*first {
            self.out.push(',');
        }
        *first = false;
        self.newline();
    }

    fn close(&mut self, bracket: char, empty: bool) {
        self.indent -= 1;
        if !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
    }
}

/// The members of an object being written.
pub struct Object<'a> {
    w: &'a mut Writer,
    first: bool,
}

impl Object<'_> {
    /// Write `key` and return the writer for its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.w.item(&mut self.first);
        escape_str(&mut self.w.out, key);
        self.w.out.push_str(if self.w.pretty { ": " } else { ":" });
        self.w
    }

    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        value.write_json(self.key(key));
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

macro_rules! integers {
    ($method:ident as $wide:ty: $($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.$method(*self as $wide);
            }
        }
    )*};
}

integers!(u64 as u64: u8 u16 u32 u64 usize);
integers!(i64 as i64: i32 i64);

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.array(self);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.array(self);
    }
}

impl<K: AsRef<str>, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, w: &mut Writer) {
        w.object(|o| {
            for (k, v) in self {
                o.field(k.as_ref(), v);
            }
        });
    }
}

/// serde_json's string escaping: `"`, `\` and control characters, with
/// the short forms for `\b \t \n \f \r` and lowercase `\u00XX` otherwise.
pub fn escape_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\u{c}' => out.push_str("\\f"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// ryu's layout of a finite `f64`: Rust's shortest round-trip digits
/// (`{:e}`), in plain decimal when the decimal point position `kk` (value =
/// 0.DIGITS × 10^kk) is in `-5 < kk <= 16`, in scientific form otherwise.
/// Formats on the stack: export writes millions of floats.
fn write_f64(out: &mut String, v: f64) {
    let mut buf = [0u8; 32];
    let mut cursor = std::io::Cursor::new(&mut buf[..]);
    std::io::Write::write_fmt(&mut cursor, format_args!("{:e}", v.abs()))
        .expect("32 bytes hold any f64 in {:e} form");
    let end = cursor.position() as usize;
    let sci = &buf[..end];
    let e = sci.iter().position(|&b| b == b'e').expect("{:e} has an exponent");
    let exp: i32 = std::str::from_utf8(&sci[e + 1..])
        .ok()
        .and_then(|x| x.parse().ok())
        .expect("{:e} exponent is an integer");
    let mut digits = [0u8; 17];
    let mut len = 0;
    for &b in sci[..e].iter().filter(|&&b| b != b'.') {
        digits[len] = b;
        len += 1;
    }
    let digits = std::str::from_utf8(&digits[..len]).expect("ASCII digits");
    if v.is_sign_negative() {
        out.push('-');
    }
    if digits == "0" {
        out.push_str("0.0");
        return;
    }
    let kk = exp + 1;
    let k = kk - len as i32;
    if 0 <= k && kk <= 16 {
        out.push_str(digits);
        out.extend(std::iter::repeat_n('0', k as usize));
        out.push_str(".0");
    } else if 0 < kk && kk <= 16 {
        let (int, frac) = digits.split_at(kk as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else if -5 < kk && kk <= 0 {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', -kk as usize));
        out.push_str(digits);
    } else {
        out.push_str(&digits[..1]);
        if len > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        let _ = write!(out, "e{}", kk - 1);
    }
}

// ---------------------------------------------------------------------------
// The value tree.

/// A parsed (or hand-built) JSON document. Integers keep their exact value:
/// `UInt` for non-negative ones, `Int` for negative ones. Object keys are
/// kept sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// An object of `members`.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(o) => o.get(key),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        *self == Value::Null
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::UInt(v) => i64::try_from(v).ok(),
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Member `key` read as a `T`. A missing member is an error naming it.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| Error(format!("`{key}`: {e}"))),
            None => Err(Error(format!("missing field `{key}`"))),
        }
    }

    /// Member `key` read as a `T`, or `T::default()` when it is missing.
    pub fn field_or_default<T: FromJson + Default>(&self, key: &str) -> Result<T, Error> {
        match self.get(key) {
            Some(_) => self.field(key),
            None => Ok(T::default()),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}

/// Non-finite floats become `Null`, as JSON has no spelling for them.
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Float(v)
        } else {
            Value::Null
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl ToJson for Value {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::UInt(v) => w.u64(*v),
            Value::Int(v) => w.i64(*v),
            Value::Float(v) => w.f64(*v),
            Value::String(s) => w.str(s),
            Value::Array(items) => w.array(items),
            Value::Object(members) => members.write_json(w),
        }
    }
}

/// Compact JSON text.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// The member, or `Null` when absent or not an object.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    /// The element, or `Null` when out of range or not an array.
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

// ---------------------------------------------------------------------------
// Reading.

/// A parse or type failure, with where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type read back from a [`Value`].
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, Error>;
}

fn expected<T>(what: &str, v: &Value) -> Result<T, Error> {
    Err(Error(format!("expected {what}, found {v}")))
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }
}

impl FromJson for u64 {
    fn from_json(v: &Value) -> Result<u64, Error> {
        v.as_u64().map_or_else(|| expected("an unsigned integer", v), Ok)
    }
}

impl FromJson for usize {
    fn from_json(v: &Value) -> Result<usize, Error> {
        v.as_u64().and_then(|n| usize::try_from(n).ok()).map_or_else(|| expected("a size", v), Ok)
    }
}

impl FromJson for i64 {
    fn from_json(v: &Value) -> Result<i64, Error> {
        v.as_i64().map_or_else(|| expected("an integer", v), Ok)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<f64, Error> {
        v.as_f64().map_or_else(|| expected("a number", v), Ok)
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<String, Error> {
        v.as_str().map_or_else(|| expected("a string", v), |s| Ok(s.to_string()))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Vec<T>, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            _ => expected("an array", v),
        }
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(v: &Value) -> Result<BTreeMap<String, T>, Error> {
        match v {
            Value::Object(members) => {
                members.iter().map(|(k, v)| Ok((k.clone(), T::from_json(v)?))).collect()
            }
            _ => expected("an object", v),
        }
    }
}

/// Nesting deeper than this is rejected, as serde_json's recursion limit.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser { s: s.as_bytes(), i: 0 };
    let value = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

/// Parse one JSON document into a `T`.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, Error> {
    T::from_json(&parse(s)?)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.i))
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), Error> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.error("expected value"))
        }
    }

    /// After an opening bracket: the next item follows a `,`, or `close`
    /// ends the sequence (`Ok(true)`).
    fn next_item(&mut self, close: u8, first: bool) -> Result<bool, Error> {
        self.ws();
        match self.peek() {
            Some(c) if c == close => {
                self.i += 1;
                Ok(true)
            }
            Some(b',') if !first => {
                self.i += 1;
                Ok(false)
            }
            _ if first => Ok(false),
            _ => Err(self.error(if close == b']' {
                "expected `,` or `]`"
            } else {
                "expected `,` or `}`"
            })),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.ws();
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                while !self.next_item(b']', items.is_empty())? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.i += 1;
                let mut members = BTreeMap::new();
                let mut first = true;
                while !self.next_item(b'}', first)? {
                    first = false;
                    self.ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.ws();
                    if self.peek() != Some(b':') {
                        return Err(self.error("expected `:`"));
                    }
                    self.i += 1;
                    members.insert(key, self.value(depth + 1)?);
                }
                Ok(Value::Object(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected value")),
        }
    }

    fn digits(&mut self) -> usize {
        let from = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - from
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let int_start = self.i;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.s[int_start] == b'0') {
            return Err(self.error("invalid number"));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.i += 1;
            float = true;
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Float(v)),
            _ => Err(self.error("number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.s.get(self.i..self.i + 4).ok_or_else(|| self.error("EOF in escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.error("invalid escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.i += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let Some(c) = self.peek() else { return Err(self.error("EOF in string")) };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8")),
                b'\\' => {
                    let Some(e) = self.peek() else { return Err(self.error("EOF in escape")) };
                    self.i += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                self.eat("\\u").map_err(|_| self.error("lone surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid surrogate pair"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            char::from_u32(code).ok_or_else(|| self.error("invalid escape"))?
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                }
                c if c < 0x20 => return Err(self.error("control character in string")),
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_text(v: f64) -> String {
        to_string(&v)
    }

    #[test]
    fn floats_follow_ryu_layout() {
        let cases: [(f64, &str); 14] = [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (-2.5, "-2.5"),
            (0.1, "0.1"),
            (100.0, "100.0"),
            (1234.5678, "1234.5678"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.5e17, "1.5e17"),
            (0.0001, "0.0001"),
            (0.00001, "0.00001"),
            (0.000001, "1e-6"),
            (1.2345e-7, "1.2345e-7"),
        ];
        for (v, want) in cases {
            assert_eq!(f64_text(v), want, "{v:e}");
        }
        assert_eq!(f64_text(f64::MAX), "1.7976931348623157e308");
        assert_eq!(f64_text(5e-324), "5e-324");
        assert_eq!(f64_text(123456789012345680.0), "1.2345678901234568e17");
        assert_eq!(f64_text(f64::NAN), "null");
        assert_eq!(f64_text(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn strings_escape_like_serde_json() {
        let mut out = String::new();
        escape_str(&mut out, "a\"b\\c\n\t\u{1}\u{7f}é/");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\t\\u0001\u{7f}é/\"");
    }

    struct Demo {
        id: u32,
        name: &'static str,
        wait: f64,
        deltas: Vec<i64>,
        tags: Vec<String>,
    }

    impl_to_json!(Demo { id, name, wait if nonzero, deltas if nonempty, tags });

    #[test]
    fn field_lists_skip_zero_and_empty_fields() {
        let d = Demo { id: 7, name: "x", wait: 0.0, deltas: vec![], tags: vec![] };
        assert_eq!(to_string(&d), r#"{"id":7,"name":"x","tags":[]}"#);
        let d = Demo { id: 7, name: "x", wait: 0.5, deltas: vec![-1, 2], tags: vec!["t".into()] };
        assert_eq!(to_string(&d), r#"{"id":7,"name":"x","wait":0.5,"deltas":[-1,2],"tags":["t"]}"#);
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let d = Demo { id: 1, name: "n", wait: 0.0, deltas: vec![3], tags: vec![] };
        let v = vec![d];
        let want = "[\n  {\n    \"id\": 1,\n    \"name\": \"n\",\n    \"deltas\": [\n      3\n    ],\n    \"tags\": []\n  }\n]";
        assert_eq!(to_string_pretty(&v), want);
        let mut m = BTreeMap::new();
        m.insert("b", Value::from(1u64));
        m.insert("a", Value::object([("k", Value::from(Some("v")))]));
        assert_eq!(to_string_pretty(&m), "{\n  \"a\": {\n    \"k\": \"v\"\n  },\n  \"b\": 1\n}");
        assert_eq!(to_string_pretty(&BTreeMap::<String, u64>::new()), "{}");
    }

    #[test]
    fn values_round_trip_through_text() {
        let text = r#"{"a":[1,-2,2.5,1e-7,true,null,"s\u00e9\n"],"b":{},"c":18446744073709551615}"#;
        let v = parse(text).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_i64(), Some(-2));
        assert_eq!(v["a"][2].as_f64(), Some(2.5));
        assert_eq!(v["a"][4], true);
        assert_eq!(v["a"][6], "sé\n");
        assert_eq!(v["c"].as_u64(), Some(u64::MAX));
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn typed_fields_name_the_failing_key() {
        let v = parse(r#"{"n":3,"xs":[1,2],"s":"t"}"#).unwrap();
        assert_eq!(v.field::<u64>("n"), Ok(3));
        assert_eq!(v.field::<Vec<i64>>("xs"), Ok(vec![1, 2]));
        assert_eq!(v.field_or_default::<Vec<f64>>("none"), Ok(vec![]));
        assert!(v.field::<u64>("none").unwrap_err().to_string().contains("`none`"));
        assert!(v.field::<u64>("s").unwrap_err().to_string().contains("`s`"));
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "01",
            "1.",
            "-",
            "\"\\x\"",
            "\"",
            "nul",
            "[1]x",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }
}
