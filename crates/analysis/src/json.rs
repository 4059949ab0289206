//! Small, std-only JSON: one lexer, one writer, and a value tree on top.
//!
//! The build environment is offline, so the workspace cannot depend on
//! `serde`; the machine-readable result pipeline (per-trial records, scenario
//! reports, `--json` output of the binaries, checkpoint lines) is built on
//! this module instead. [`JsonReader`] is the grammar (a linear-time pull
//! lexer, bounded in depth) and [`JsonWriter`] the formatting; [`JsonValue`]
//! is a tree that parses through the one and prints through the other, and
//! hot typed codecs skip the tree and use the two directly (a fixed-shape
//! record renders its members in one pass through [`JsonMembers`]). It supports
//! exactly standard JSON with two deliberate choices:
//!
//! * **Integers are exact.** Numbers without a fraction or exponent are kept
//!   as [`JsonValue::Int`] (`i128`, covering every `u64` seed bit-exactly);
//!   everything else is an [`JsonValue::Float`] written with Rust's
//!   shortest-round-trip formatting, so `emit → parse` reproduces every
//!   finite `f64` exactly.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map), so
//!   emitted documents are deterministic and diffs stay readable.
//!
//! Non-finite floats have no JSON representation; the writer emits `null` for
//! them (the statistics layer never produces NaN — see
//! [`Summary`](crate::Summary)).

use std::borrow::Cow;
use std::fmt;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept bit-exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as insertion-ordered `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Appends `key: value` to an object. Convenience for building documents.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            JsonValue::Object(pairs) => pairs.push((key.into(), value.into())),
            other => panic!("push on non-object JSON value {other:?}"),
        }
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Parses a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected) by driving a [`JsonReader`] over `text`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error with its byte offset;
    /// nesting beyond [`MAX_JSON_DEPTH`] is an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut reader = JsonReader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl From<Option<u64>> for JsonValue {
    fn from(v: Option<u64>) -> Self {
        v.map_or(JsonValue::Null, JsonValue::from)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut writer = JsonWriter::new(f);
        writer.value(self);
        writer.result
    }
}

/// Writes JSON text straight into its sink: the one place escaping and
/// number formatting live, driven by [`JsonValue`]'s `Display` from a tree
/// (into the formatter) and by typed encoders from their fields (into a
/// `String`). Commas are placed here; the caller pairs `begin_*`/`end_*` and
/// puts a [`JsonWriter::key`] before every member.
#[derive(Debug)]
pub struct JsonWriter<'a, W: fmt::Write = String> {
    out: &'a mut W,
    /// The next item is first in its container (or follows its key): no comma.
    fresh: bool,
    /// The sink's first error, after which nothing more is written (a
    /// `String` never returns one).
    result: fmt::Result,
}

impl<'a, W: fmt::Write> JsonWriter<'a, W> {
    /// A writer appending one document to `out`.
    pub fn new(out: &'a mut W) -> Self {
        JsonWriter {
            out,
            fresh: true,
            result: Ok(()),
        }
    }

    #[inline]
    fn put(&mut self, text: &str) {
        if self.result.is_ok() {
            self.result = self.out.write_str(text);
        }
    }

    #[inline]
    fn separate(&mut self) {
        if !self.fresh {
            self.put(",");
        }
        self.fresh = false;
    }

    fn bracket(&mut self, bracket: &str, opens: bool) -> &mut Self {
        if opens {
            self.separate();
        }
        self.put(bracket);
        self.fresh = opens;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.bracket("{", true)
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.bracket("}", false)
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.bracket("[", true)
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.bracket("]", false)
    }

    /// Writes an object member's key; its value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.put(":");
        self.fresh = true;
        self
    }

    /// Writes a string: unescaped runs copied in bulk, `"`/`\`/controls escaped.
    #[inline]
    pub fn str(&mut self, text: &str) -> &mut Self {
        self.separate();
        self.put("\"");
        let mut run = 0;
        for (i, &byte) in text.as_bytes().iter().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1F => "",
                _ => continue,
            };
            self.put(&text[run..i]);
            if escape.is_empty() {
                self.put_fmt(format_args!("\\u{byte:04x}"));
            } else {
                self.put(escape);
            }
            run = i + 1;
        }
        self.put(&text[run..]);
        self.put("\"");
        self
    }

    /// Writes an unsigned integer, digits produced directly (no `fmt`).
    #[inline]
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.separate();
        let mut digits = [0u8; U64_DIGITS];
        let len = put_digits(&mut digits, value);
        self.put(std::str::from_utf8(&digits[..len]).expect("ASCII digits"));
        self
    }

    /// Appends members rendered ahead of time by [`JsonMembers`]
    /// (`"a":1,"b":true`) to the open object as one write, a comma first
    /// unless they open it. They carry their own keys: no
    /// [`JsonWriter::key`] goes before them.
    pub fn members<const N: usize>(&mut self, members: &JsonMembers<N>) -> &mut Self {
        self.separate();
        self.put(members.as_str());
        self
    }

    /// Writes an integer, or `null` for `None`.
    pub fn opt_u64(&mut self, value: Option<u64>) -> &mut Self {
        match value {
            Some(value) => self.u64(value),
            None => self.null(),
        }
    }

    /// Writes `true` / `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.separate();
        self.put(if value { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.put("null");
        self
    }

    /// Writes a whole document tree.
    pub fn value(&mut self, value: &JsonValue) -> &mut Self {
        match value {
            JsonValue::Null => self.null(),
            JsonValue::Bool(b) => self.bool(*b),
            JsonValue::Int(i) => match u64::try_from(*i) {
                Ok(v) => self.u64(v),
                Err(_) => self.display(format_args!("{i}")),
            },
            JsonValue::Float(v) if !v.is_finite() => self.null(),
            // `{}` on f64 is Rust's shortest representation that parses back
            // to the same bits, but it omits the decimal point for integral
            // values; force one so the round trip stays a Float.
            JsonValue::Float(v) if v.fract() == 0.0 && v.abs() < 1e15 => {
                self.display(format_args!("{v:.1}"))
            }
            // Huge integral floats: exponent notation keeps them floats on
            // re-parse (a bare digit string would come back as an Int).
            JsonValue::Float(v) if v.fract() == 0.0 => self.display(format_args!("{v:e}")),
            JsonValue::Float(v) => self.display(format_args!("{v}")),
            JsonValue::String(s) => self.str(s),
            JsonValue::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            JsonValue::Object(pairs) => {
                self.begin_object();
                for (key, value) in pairs {
                    self.key(key).value(value);
                }
                self.end_object()
            }
        }
    }

    /// A number whose text `fmt` produces (floats, integers beyond `u64`).
    fn display(&mut self, number: fmt::Arguments<'_>) -> &mut Self {
        self.separate();
        self.put_fmt(number);
        self
    }

    fn put_fmt(&mut self, text: fmt::Arguments<'_>) {
        if self.result.is_ok() {
            self.result = self.out.write_fmt(text);
        }
    }
}

/// Decimal digits of `u64::MAX`, the longest integer [`JsonWriter::u64`] and
/// [`JsonMembers::u64`] write.
const U64_DIGITS: usize = 20;

/// Writes `value`'s decimal digits at the start of `out` and returns how many
/// it wrote: the crate's one integer writer. The digits come out last first
/// and are turned around where they lie (counting them first with `ilog10`
/// measured ≈ 10 % slower on tree emission).
#[inline]
fn put_digits(out: &mut [u8], mut value: u64) -> usize {
    let mut len = 0;
    loop {
        out[len] = b'0' + (value % 10) as u8;
        value /= 10;
        len += 1;
        if value == 0 {
            break;
        }
    }
    out[..len].reverse();
    len
}

/// The members of one fixed-shape object, rendered in one pass into a
/// buffer of `N` bytes on the stack and handed to [`JsonWriter::members`] in
/// one write: the encoder for a typed record whose member names need no
/// escaping and whose values are integers, bools and `null`. Each member's
/// prefix (`,"seed":`) is a byte literal whose length the copy knows at
/// compile time. `N` must cover the longest rendering (every integer at
/// `u64::MAX`, every optional `null` or a number, whichever is longer); past
/// it a write panics, so the encoder's tests pin that case.
#[derive(Debug)]
pub struct JsonMembers<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

impl<const N: usize> JsonMembers<N> {
    /// No members yet.
    #[inline]
    pub fn new() -> Self {
        JsonMembers {
            bytes: [0; N],
            len: 0,
        }
    }

    /// Appends JSON text verbatim: a member's key with its quotes, colon
    /// and separating comma, or a bracket. It must be ASCII, escaped already.
    #[inline]
    pub fn raw<const K: usize>(&mut self, text: &[u8; K]) -> &mut Self {
        self.bytes[self.len..self.len + K].copy_from_slice(text);
        self.len += K;
        self
    }

    /// Appends an unsigned integer.
    #[inline]
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.len += put_digits(&mut self.bytes[self.len..], value);
        self
    }

    /// Appends an integer, or `null` for `None`.
    #[inline]
    pub fn opt_u64(&mut self, value: Option<u64>) -> &mut Self {
        match value {
            Some(value) => self.u64(value),
            None => self.raw(b"null"),
        }
    }

    /// Appends `true` / `false`.
    #[inline]
    pub fn bool(&mut self, value: bool) -> &mut Self {
        if value {
            self.raw(b"true")
        } else {
            self.raw(b"false")
        }
    }

    /// The text rendered so far.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("members are ASCII")
    }
}

impl<const N: usize> Default for JsonMembers<N> {
    fn default() -> Self {
        JsonMembers::new()
    }
}

/// Deepest container nesting a [`JsonReader`] follows (documents this
/// workspace writes nest four levels): a hostile `[[[[…` is an error, not a
/// stack overflow in the recursive consumers.
pub const MAX_JSON_DEPTH: usize = 128;
const TOO_DEEP: &str = "at most 128 levels of nesting";

/// Where a [`JsonReader`] stopped, and what it would have accepted there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the grammar (or the typed consumer) needed at this point.
    pub expected: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.at)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(err: JsonError) -> Self {
        err.to_string()
    }
}

/// A number as lexed: a `u64` accumulated on the way, or its checked text.
enum Number<'a> {
    Unsigned(u64),
    Text { text: &'a str, float: bool },
}

/// A linear-time pull lexer over JSON text: the one place the grammar lives.
/// [`JsonValue::parse`] builds a tree from it; typed decoders pull their
/// fields from it directly. The input is already `&str`, so string contents
/// are never re-validated: unescaped runs are found by byte scan and borrowed
/// or copied in bulk. The caller walks containers with `begin_object` +
/// `next_key` and `begin_array` + `next_element`, reading one value after
/// every key / `true`; commas, colons and closing brackets are checked here.
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// The last token opened a container, so its first item takes no comma.
    fresh: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn unexpected(&self, expected: &'static str) -> JsonError {
        let at = self.pos;
        JsonError { expected, at }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, byte: u8, expected: &'static str) -> Result<(), JsonError> {
        if self.peek() != Some(byte) {
            return Err(self.unexpected(expected));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &'static str) -> Result<(), JsonError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.unexpected(word));
        }
        self.pos += word.len();
        self.fresh = false;
        Ok(())
    }

    fn open(&mut self, bracket: u8, expected: &'static str) -> Result<(), JsonError> {
        if self.depth == MAX_JSON_DEPTH && self.peek() == Some(bracket) {
            return Err(self.unexpected(TOO_DEEP));
        }
        self.expect(bracket, expected)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Consumes `bracket` if it is next, leaving its container.
    #[inline]
    fn close(&mut self, bracket: u8) -> bool {
        let closes = self.peek() == Some(bracket);
        if closes {
            self.pos += 1;
            self.depth = self.depth.saturating_sub(1);
            self.fresh = false;
        }
        closes
    }

    /// Enters an object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', "'{'")
    }

    /// The next member's key (borrowed when it holds no escape), or `None`
    /// once the object closes.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.close(b'}') {
            return Ok(None);
        }
        if !self.fresh {
            self.expect(b',', "',' or '}'")?;
        }
        let key = self.string()?;
        self.expect(b':', "':'")?;
        Ok(Some(key))
    }

    /// Consumes the next member's key if it is `name` spelled exactly as a
    /// writer spells it — `"name":`, with the `,` before it unless it opens
    /// the object, no whitespace, no escape — and otherwise consumes nothing,
    /// leaving [`JsonReader::next_key`] to read whatever is there. The fast
    /// lane of [`read_json_object!`](crate::read_json_object); `name` must
    /// need no escaping.
    #[inline]
    pub fn next_key_is(&mut self, name: &str) -> bool {
        let rest = &self.text.as_bytes()[self.pos..];
        let rest = if self.fresh {
            Some(rest)
        } else {
            rest.strip_prefix(b",")
        };
        let after = rest
            .and_then(|rest| rest.strip_prefix(b"\""))
            .and_then(|rest| rest.strip_prefix(name.as_bytes()))
            .and_then(|rest| rest.strip_prefix(b"\":"));
        let Some(after) = after else {
            return false;
        };
        self.pos = self.text.len() - after.len();
        self.fresh = false;
        true
    }

    /// Enters an array.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', "'['")
    }

    /// `true` when another element follows (read it next), `false` once the
    /// array closes.
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        if self.close(b']') {
            return Ok(false);
        }
        if !self.fresh {
            self.expect(b',', "',' or ']'")?;
        }
        Ok(true)
    }

    /// Requires that only whitespace remains.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.unexpected("end of input")),
        }
    }

    /// Reads a string, borrowing it from the input when it holds no escape.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "a string")?;
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        let mut unescaped = String::new();
        // `run` moves only past an escape, and like every stop it sits next
        // to an ASCII byte, so the slices below are on char boundaries.
        let mut run = start;
        loop {
            let stop = bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            self.pos = stop.map_or(bytes.len(), |offset| run + offset);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    self.fresh = false;
                    if run == start {
                        return Ok(Cow::Borrowed(tail));
                    }
                    unescaped.push_str(tail);
                    return Ok(Cow::Owned(unescaped));
                }
                Some(b'\\') => {
                    unescaped.push_str(&text[run..self.pos]);
                    self.pos += 1;
                    unescaped.push(self.escape()?);
                    run = self.pos;
                }
                Some(_) => return Err(self.unexpected("no raw control byte inside a string")),
                None => return Err(self.unexpected("a closing '\"'")),
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let bytes = self.text.as_bytes();
        let simple = match bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let at = self.pos;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate is only half a character: its low
                    // half must follow as a second \u escape.
                    if bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return Err(self.unexpected("a low surrogate after a high one"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.unexpected("a low surrogate after a high one"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                // What is left to fail here is a lone low surrogate.
                let expected = "a Unicode scalar value, not a lone surrogate";
                return char::from_u32(code).ok_or(JsonError { expected, at });
            }
            _ => return Err(self.unexpected("a valid escape character")),
        };
        self.pos += 1;
        Ok(simple)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = hex.and_then(|hex| u32::from_str_radix(hex, 16).ok());
        let code = code.ok_or_else(|| self.unexpected("four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Lexes one number by the JSON grammar
    /// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`).
    fn number(&mut self) -> Result<Number<'a>, JsonError> {
        let bytes = self.text.as_bytes();
        let digit_run = |mut at: usize| {
            while bytes.get(at).is_some_and(u8::is_ascii_digit) {
                at += 1;
            }
            at
        };
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let int_start = start + usize::from(negative);
        let mut end = digit_run(int_start);
        if end == int_start || (bytes[int_start] == b'0' && end > int_start + 1) {
            self.pos = int_start;
            return Err(self.unexpected("a number without leading zeros"));
        }
        // `None` once the digits overflow a u64.
        let exact = bytes[int_start..end].iter().try_fold(0u64, |value, digit| {
            value.checked_mul(10)?.checked_add(u64::from(digit - b'0'))
        });
        let mut float = false;
        if bytes.get(end) == Some(&b'.') {
            float = true;
            self.pos = end + 1;
            end = digit_run(self.pos);
            if end == self.pos {
                return Err(self.unexpected("a digit after the decimal point"));
            }
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            float = true;
            self.pos = end + 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
            end = digit_run(self.pos);
            if end == self.pos {
                return Err(self.unexpected("a digit in the exponent"));
            }
        }
        self.pos = end;
        self.fresh = false;
        Ok(match exact {
            Some(value) if !negative && !float => Number::Unsigned(value),
            _ => Number::Text {
                text: &self.text[start..end],
                float,
            },
        })
    }

    /// Reads an integer in `0..=u64::MAX`; a negative, a fraction, an exponent
    /// or digits past 64 bits are errors.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        self.peek();
        let at = self.pos;
        // A plain run of at most 19 digits cannot overflow: read it in place.
        // A leading zero, a 20th digit, a fraction or an exponent takes the
        // general lexer, which accepts or refuses it as before.
        let bytes = &self.text.as_bytes()[at..];
        let (digits, value) = bytes
            .iter()
            .take(U64_DIGITS - 1)
            .map_while(|&byte| byte.is_ascii_digit().then(|| u64::from(byte - b'0')))
            .fold((0, 0), |(digits, value), digit| {
                (digits + 1, value * 10 + digit)
            });
        let plain = digits > 0
            && (digits == 1 || bytes[0] != b'0')
            && !matches!(bytes.get(digits), Some(b'0'..=b'9' | b'.' | b'e' | b'E'));
        if plain {
            self.pos += digits;
            self.fresh = false;
            return Ok(value);
        }
        match self.number() {
            Ok(Number::Unsigned(value)) => Ok(value),
            _ => Err(JsonError {
                expected: "an unsigned 64-bit integer",
                at,
            }),
        }
    }

    /// Reads `null` as `None`, else an integer as [`JsonReader::u64`] does.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, JsonError> {
        if self.peek() == Some(b'n') {
            return self.literal("null").map(|()| None);
        }
        self.u64().map(Some)
    }

    /// Reads `true` / `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.unexpected("a bool")),
        }
    }

    /// Reads any value as a tree.
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b't' | b'f') => self.bool().map(JsonValue::Bool),
            Some(b'"') => self.string().map(|s| JsonValue::String(s.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(JsonValue::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    pairs.push((key.into_owned(), self.value()?));
                }
                Ok(JsonValue::Object(pairs))
            }
            Some(b'-' | b'0'..=b'9') => {
                let at = self.pos;
                match self.number()? {
                    Number::Unsigned(value) => Ok(JsonValue::Int(value.into())),
                    Number::Text { text, float } => {
                        // Integers beyond i128 degrade to floats, as before.
                        let int = if float { None } else { text.parse().ok() };
                        let expected = "a number";
                        int.map(JsonValue::Int)
                            .or_else(|| text.parse().ok().map(JsonValue::Float))
                            .ok_or(JsonError { expected, at })
                    }
                }
            }
            _ => Err(self.unexpected("a value")),
        }
    }
}

/// Decodes one JSON object into local variables, one per listed member
/// (`"name" => variable: read expression`): members may arrive in any order,
/// unknown ones are skipped (grammar-checked), a listed one that never
/// arrives is an error naming it, a repeated one keeps its last value, and a
/// failed read is reported under its member's name. Expands to statements for
/// a function returning `Result<_, String>`.
///
/// Members are first taken in the listed order, each key matched in place by
/// [`JsonReader::next_key_is`] — the whole object, when a writer of the same
/// list produced it. At the first key spelled or placed otherwise the
/// any-order loop takes over where that lane stopped, so every input decodes,
/// or fails with the same error, as it would through the loop alone.
#[macro_export]
macro_rules! read_json_object {
    ($reader:expr, { $($key:literal => $slot:ident: $read:expr),+ $(,)? }) => {
        $(let mut $slot = None;)+
        $reader.begin_object()?;
        'declared: {
            $(
                if !$reader.next_key_is($key) {
                    break 'declared;
                }
                $slot = Some($read.map_err(|err| format!("field '{}': {err}", $key))?);
            )+
        }
        while let Some(key) = $reader.next_key()? {
            match &*key {
                $($key => {
                    $slot = Some($read.map_err(|err| format!("field '{}': {err}", $key))?);
                })+
                _ => drop($reader.value()?),
            }
        }
        $(let $slot = $slot.ok_or_else(|| format!("missing field '{}'", $key))?;)+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &JsonValue) {
        let text = value.to_string();
        let parsed = JsonValue::parse(&text)
            .unwrap_or_else(|err| panic!("emitted JSON failed to parse: {err}\n{text}"));
        assert_eq!(&parsed, value, "round trip changed the document: {text}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&JsonValue::Null);
        round_trip(&JsonValue::Bool(true));
        round_trip(&JsonValue::Bool(false));
        round_trip(&JsonValue::Int(0));
        round_trip(&JsonValue::Int(-42));
        round_trip(&JsonValue::Int(u64::MAX as i128));
        round_trip(&JsonValue::Float(1.5));
        round_trip(&JsonValue::Float(0.1 + 0.2));
        round_trip(&JsonValue::Float(3.0));
        round_trip(&JsonValue::Float(1e-300));
        round_trip(&JsonValue::Float(1e20));
        round_trip(&JsonValue::String("hello".to_string()));
        round_trip(&JsonValue::String(
            "quote \" slash \\ tab \t nl \n".to_string(),
        ));
        round_trip(&JsonValue::String("unicode: ∆ ≥ é".to_string()));
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        let mut obj = JsonValue::object();
        obj.push("zebra", 1u64).push("alpha", 2u64).push(
            "list",
            JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Null]),
        );
        round_trip(&obj);
        assert!(obj.to_string().find("zebra").unwrap() < obj.to_string().find("alpha").unwrap());
    }

    #[test]
    fn u64_seeds_are_bit_exact() {
        let seed = u64::MAX - 12345;
        let value = JsonValue::from(seed);
        let parsed = JsonValue::parse(&value.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(seed));
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = JsonValue::parse(
            r#"{"id": "e1/x", "trials": 10, "rate": 0.95, "ok": true, "none": null,
                "items": [1, 2]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("id").and_then(JsonValue::as_str), Some("e1/x"));
        assert_eq!(doc.get("trials").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(doc.get("rate").and_then(JsonValue::as_f64), Some(0.95));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert!(doc.get("none").unwrap().is_null());
        assert_eq!(
            doc.get("items")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            2
        );
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{,\"a\":1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "[1 2]",
            "nulla",
            // Numbers outside the grammar.
            "01",
            "-",
            "-01",
            "1.",
            ".5",
            "1e",
            "1e+",
            "+1",
            // `\u` takes exactly four hex digits, and surrogates only in pairs.
            "\"\\u+041\"",
            "\"\\u00g1\"",
            "\"\\u00\"",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\x41\"",
            // Raw control bytes inside a string.
            "\"a\nb\"",
            "\"tab\there\"",
            "\"nul\u{0}\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        for bracket in ["[", "{\"a\":"] {
            let hostile = bracket.repeat(2_000_000);
            assert!(JsonValue::parse(&hostile).is_err());
            let err = JsonReader::new(&hostile).value().unwrap_err();
            assert_eq!(err.expected, TOO_DEEP);
            assert!(
                err.to_string().contains(&MAX_JSON_DEPTH.to_string()),
                "depth not named: {err}"
            );
        }
        // Exactly at the bound still parses (and drops) fine.
        let deepest = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(JsonValue::parse(&deepest).is_ok());
        assert!(JsonValue::parse(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let doc = JsonValue::parse(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        let items = doc.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[1].as_str(), Some("A\n"));
        // Every escape, a surrogate pair, and multi-byte text between them.
        let doc =
            JsonValue::parse(r#""é\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00∆\uD83D\uDE00""#).unwrap();
        assert_eq!(
            doc.as_str(),
            Some("é\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{1F600}∆\u{1F600}")
        );
        for (text, value) in [
            ("0", JsonValue::Int(0)),
            ("-0", JsonValue::Int(0)),
            ("18446744073709551615", JsonValue::Int(u64::MAX.into())),
            ("18446744073709551616", JsonValue::Int(1 << 64)),
            ("-5", JsonValue::Int(-5)),
            ("0.5", JsonValue::Float(0.5)),
            ("-1.25e2", JsonValue::Float(-125.0)),
            ("1E-2", JsonValue::Float(0.01)),
        ] {
            assert_eq!(JsonValue::parse(text), Ok(value), "{text}");
        }
    }

    #[test]
    fn reader_pulls_typed_fields_and_borrows_plain_strings() {
        let text = r#" {"id": "e1/x", "esc\n": "a\tb", "n": 18446744073709551615, "none": null,
            "ok": true, "list": [1, 2, 3]} "#;
        let mut r = JsonReader::new(text);
        r.begin_object().unwrap();
        assert!(matches!(r.next_key(), Ok(Some(Cow::Borrowed("id")))));
        assert!(matches!(r.string(), Ok(Cow::Borrowed("e1/x"))));
        assert!(matches!(r.next_key(), Ok(Some(Cow::Owned(key))) if key == "esc\n"));
        assert!(matches!(r.string(), Ok(Cow::Owned(s)) if s == "a\tb"));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("none"));
        assert_eq!(r.opt_u64(), Ok(None));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("ok"));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("list"));
        r.begin_array().unwrap();
        let mut sum = 0;
        while r.next_element().unwrap() {
            sum += r.opt_u64().unwrap().unwrap();
        }
        assert_eq!(sum, 6);
        assert_eq!(r.next_key(), Ok(None));
        assert_eq!(r.finish(), Ok(()));

        // What `u64` must refuse, each with the offset of the offending token.
        for bad in [
            "-1",
            "1.0",
            "1e3",
            "18446744073709551616",
            "\"1\"",
            "null",
            "true",
        ] {
            let err = JsonReader::new(bad).u64().unwrap_err();
            assert_eq!(err.at, 0, "{bad}: {err}");
        }
    }

    #[test]
    fn object_macro_reads_members_in_any_order_and_names_what_failed() {
        fn range(text: &str) -> Result<(u64, u64), String> {
            let r = &mut JsonReader::new(text);
            read_json_object!(r, { "lo" => lo: r.u64(), "hi" => hi: r.u64() });
            Ok((lo, hi))
        }
        assert_eq!(range(r#"{"hi": 9, "note": [{}], "lo": 4}"#), Ok((4, 9)));
        assert!(range(r#"{"lo": 4}"#).unwrap_err().contains("'hi'"));
        assert!(range(r#"{"lo": 4, "hi": 1.5}"#)
            .unwrap_err()
            .contains("'hi'"));
        assert!(range(r#"{"lo": 4, "note": [01], "hi": 5}"#).is_err());
    }

    #[test]
    fn object_macro_leaves_the_declared_order_anywhere_and_keeps_the_last_duplicate() {
        fn triple(text: &str) -> Result<(u64, u64, u64), String> {
            let r = &mut JsonReader::new(text);
            read_json_object!(r, { "a" => a: r.u64(), "b" => b: r.u64(), "c" => c: r.u64() });
            r.finish()?;
            Ok((a, b, c))
        }
        for text in [
            r#"{"a":1,"b":2,"c":3}"#,
            r#"{"b":2,"a":1,"c":3}"#,
            r#"{"a":1,"c":3,"b":2}"#,
            r#"{"a":1,"b":2,"x":[{}],"c":3}"#,
            r#"{"a":1,"b":2,"\u0063":3}"#,
            r#"{"a":1,"b":2, "c":3}"#,
            r#"{"a":1,"b":2,"c":3,"x":null}"#,
            r#"{"a":0,"b":2,"c":3,"a":1}"#,
            r#"{"a":0,"a":1,"b":2,"c":3}"#,
            r#"{"a":1,"b":0,"c":0,"b":2,"c":3}"#,
        ] {
            assert_eq!(triple(text), Ok((1, 2, 3)), "{text}");
        }
        for (text, named) in [
            (r#"{"a":1,"c":3}"#, "missing field 'b'"),
            (r#"{"a":1,"b":true,"c":3}"#, "field 'b'"),
            (r#"{"a":1,"c":3,"b":-2}"#, "field 'b'"),
            (r#"{"a":1,"b":2,"c":3,}"#, "a string"),
        ] {
            let err = triple(text).unwrap_err();
            assert!(err.contains(named), "{text}: {err}");
        }
    }

    #[test]
    fn the_declared_order_lane_consumes_an_exact_key_or_nothing() {
        let text = r#"{"a":1,"b" :2,"\u0063":3, "d":4 ,"e":5}"#;
        let r = &mut JsonReader::new(text);
        r.begin_object().unwrap();
        assert!(!r.next_key_is("b"), "not the first key");
        assert!(!r.next_key_is(""), "a prefix of a key is not the key");
        assert!(r.next_key_is("a"));
        assert_eq!(r.u64(), Ok(1));
        // Whitespace and escapes are the any-order loop's: nothing consumed.
        for spelled_otherwise in ["b", "c", "d"] {
            let at = r.pos;
            assert!(!r.next_key_is(spelled_otherwise));
            assert_eq!(r.pos, at);
            assert_eq!(r.next_key().unwrap().as_deref(), Some(spelled_otherwise));
            r.u64().unwrap();
        }
        assert!(!r.next_key_is("e"), "whitespace before the comma");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("e"));
        assert_eq!(r.u64(), Ok(5));
        assert!(!r.next_key_is("e"));
        assert_eq!(r.next_key(), Ok(None));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn plain_digit_runs_read_as_the_general_lexer_reads_them() {
        // Every u64 text the fast path takes, and every neighbour it must
        // leave to the lexer: same value, or the same error at the same byte.
        let mut cases: Vec<String> = [
            "0",
            "7",
            "10",
            "00",
            "01",
            "-0",
            "0.5",
            "1e3",
            "1E3",
            "12.",
            "1x",
            "1 ",
            " 1",
            "9999999999999999999",
            "09999999999999999999",
            "1000000000000000000",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "184467440737095516150",
            "1234567890123456789.0",
            "1234567890123456789e1",
        ]
        .iter()
        .map(|case| case.to_string())
        .collect();
        for digits in 1..=21 {
            cases.push("7".repeat(digits));
            cases.push(format!("1{}", "0".repeat(digits - 1)));
        }
        for case in &cases {
            let fast = JsonReader::new(case).u64();
            let mut general = JsonReader::new(case);
            general.peek();
            let at = general.pos;
            let general = match general.number() {
                Ok(Number::Unsigned(value)) => Ok(value),
                _ => Err(JsonError {
                    expected: "an unsigned 64-bit integer",
                    at,
                }),
            };
            assert_eq!(fast, general, "{case:?}");
            // The tree reads `-0` as 0; `u64` refuses every sign.
            if let (Ok(tree), false) = (JsonValue::parse(case), case.starts_with('-')) {
                assert_eq!(fast.as_ref().ok(), tree.as_u64().as_ref(), "{case:?}");
            }
        }
    }

    #[test]
    fn members_render_what_the_writer_writes() {
        let ints = [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            1 << 53,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut members = JsonMembers::<600>::new();
        let mut expected = String::new();
        let mut w = JsonWriter::new(&mut expected);
        w.begin_object();
        for (i, &int) in ints.iter().enumerate() {
            if i > 0 {
                members.raw(b",");
            }
            members.raw(b"\"n\":").u64(int);
            w.key("n").u64(int);
            assert_eq!(int.to_string(), JsonValue::from(int).to_string());
        }
        members
            .raw(b",\"t\":")
            .bool(true)
            .raw(b",\"f\":")
            .bool(false);
        members
            .raw(b",\"o\":")
            .opt_u64(None)
            .raw(b",\"s\":")
            .opt_u64(Some(3));
        w.key("t").bool(true).key("f").bool(false);
        w.key("o").opt_u64(None).key("s").opt_u64(Some(3));
        w.end_object();
        let mut rendered = String::new();
        JsonWriter::new(&mut rendered)
            .begin_object()
            .members(&members)
            .end_object();
        assert_eq!(rendered, expected);
        // After a member of the writer's own, they take a comma.
        let mut led = String::new();
        JsonWriter::new(&mut led)
            .begin_object()
            .key("id")
            .str("x")
            .members(&members)
            .end_object();
        assert_eq!(led, expected.replacen('{', "{\"id\":\"x\",", 1));
    }

    #[test]
    fn writer_matches_the_tree_on_typed_calls() {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        w.begin_object();
        w.key("s").str("q\" b\\ n\n r\r t\t c\u{1} é∆");
        w.key("n").u64(u64::MAX);
        w.key("z").u64(0);
        w.key("o").opt_u64(None);
        w.key("b").bool(false);
        w.key("a")
            .begin_array()
            .u64(1)
            .null()
            .begin_object()
            .end_object();
        w.end_array().end_object();
        assert_eq!(
            out,
            r#"{"s":"q\" b\\ n\n r\r t\t c\u0001 é∆","n":18446744073709551615,"z":0,"o":null,"b":false,"a":[1,null,{}]}"#
        );
        let tree = JsonValue::parse(&out).unwrap();
        assert_eq!(tree.to_string(), out);
        assert_eq!(JsonValue::Int(i128::MIN).to_string(), i128::MIN.to_string());
        assert_eq!(JsonValue::Int(-7).to_string(), "-7");
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }
}
