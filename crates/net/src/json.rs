//! A minimal JSON value, parser, and writer for the wire format.
//!
//! The build environment is offline (no serde), and the wire format only
//! needs a small JSON subset: objects, arrays, strings, booleans, null,
//! and **unsigned integers** (every number on the wire is a count, an
//! offset, or a status — never fractional, never negative). Numbers with
//! a sign, fraction, or exponent are rejected on parse, which keeps the
//! round-trip exact: what the writer emits, the parser reproduces
//! bit-for-bit.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts. The wire's own
/// nesting is the envelope (five levels down to a term) plus two per
/// batch level, so 64 is far beyond any real message — while an
/// unbounded `[[[[…` body would otherwise recurse the connection
/// thread's stack away and abort the process.
const MAX_NESTING: usize = 64;

/// Every object key the wire format writes. [`Json::parse`] hands these
/// back borrowed, so decoding a row set allocates no `String` per
/// `"t"`/`"v"`; any other key is kept owned.
#[rustfmt::skip]
const WIRE_KEYS: [&str; 28] = [
    "t", "v", "lang", "dt", "s", "p", "o", "op", "query", "requests", "ok", "response", "error",
    "type", "vars", "rows", "value", "responses", "epoch", "kind", "message", "offset", "breach",
    "limit", "elapsed_ns", "endpoint", "max_queries", "retry_after_ms",
];

/// A JSON value restricted to the wire format's subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number shape on the wire).
    Uint(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order (the writer is
    /// deterministic, which keeps wire bytes reproducible). Keys are
    /// borrowed when they are one of the wire's own (see [`Json::obj`]).
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// Object constructor from key/value pairs (an array of them makes
    /// the object with a single allocation).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON text (no whitespace).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a value. The whole input must be consumed
    /// (trailing whitespace allowed). Containers nested deeper than 64
    /// levels are rejected, whatever they hold.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(format!("trailing bytes at offset {}", parser.pos));
        }
        Ok(value)
    }
}

/// Writes `s` quoted, copying each run of bytes that need no escape in
/// one piece. Every byte that does need one is ASCII, so the runs
/// between them start and end on character boundaries.
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some((run, tail)) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
        .and_then(|at| rest.split_at_checked(at))
    {
        out.push_str(run);
        let mut chars = tail.chars();
        match chars.next() {
            Some('"') => out.push_str("\\\""),
            Some('\\') => out.push_str("\\\\"),
            Some('\n') => out.push_str("\\n"),
            Some('\r') => out.push_str("\\r"),
            Some('\t') => out.push_str("\\t"),
            Some(c) => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            None => {}
        }
        rest = chars.as_str();
    }
    out.push_str(rest);
    out.push('"');
}

/// The key as the tree stores it: one of [`WIRE_KEYS`] borrowed, or the
/// parsed text owned.
fn object_key(key: Cow<'_, str>) -> Cow<'static, str> {
    match WIRE_KEYS.iter().find(|known| **known == key) {
        Some(known) => Cow::Borrowed(known),
        None => Cow::Owned(key.into_owned()),
    }
}

/// A cursor over the input. The input is a `&str` and every byte the
/// grammar stops at is ASCII, so each span taken between two stops is
/// valid UTF-8 as it stands and is copied without being checked again.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b'[' | b'{') if depth >= MAX_NESTING => Err(format!(
                "nesting deeper than {MAX_NESTING} levels at offset {}",
                self.pos
            )),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("expected ',' or ']', found {other:?}")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = object_key(self.string()?);
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(format!("expected ':' after key at offset {}", self.pos));
                    }
                    self.pos += 1;
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        other => return Err(format!("expected ',' or '}}', found {other:?}")),
                    }
                }
            }
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err(
                        "fractional and exponent numbers are not in the wire subset".to_owned()
                    );
                }
                let digits = self.text.get(start..self.pos).ok_or("bad integer span")?;
                digits
                    .parse::<u64>()
                    .map(Json::Uint)
                    .map_err(|e| format!("bad integer {digits:?}: {e}"))
            }
            Some(other) => Err(format!("unexpected byte {other:?} at offset {}", self.pos)),
        }
    }

    fn keyword(&mut self, keyword: &str, value: Json) -> Result<Json, String> {
        if self
            .text
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(keyword))
        {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(format!("expected {keyword:?} at offset {}", self.pos))
        }
    }

    /// One string literal: runs between `"` and `\` are taken as spans,
    /// borrowed from the input when the literal has no escape at all.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut decoded: Option<String> = None;
        loop {
            let rest = self
                .text
                .get(self.pos..)
                .ok_or("string span off a boundary")?;
            let (run, tail) = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .and_then(|stop| rest.split_at_checked(stop))
                .ok_or("unterminated string")?;
            self.pos += run.len() + 1;
            if tail.starts_with('"') {
                return Ok(match decoded {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(run);
            self.escape(out)?;
        }
    }

    /// Decodes the escape whose backslash has just been consumed.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                // Surrogate pairs: a high surrogate must be followed by
                // an escaped low surrogate.
                if (0xD800..0xDC00).contains(&code) {
                    if self.text.get(self.pos + 1..self.pos + 3) != Some("\\u") {
                        return Err("lone surrogate".to_owned());
                    }
                    let lo = self.hex4(self.pos + 3)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("invalid low surrogate".to_owned());
                    }
                    self.pos += 6;
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(combined).ok_or("invalid surrogate pair")?
                } else {
                    char::from_u32(code).ok_or(format!("invalid codepoint \\u{code:04x}"))?
                }
            }
            other => return Err(format!("bad escape {other:?}")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// The four hex digits at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.text.get(at..at + 4).ok_or("truncated \\u escape")?;
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u{hex}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;

    #[test]
    fn round_trips_structures() {
        let value = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("n", Json::Uint(18446744073709551615)),
            (
                "items",
                Json::Arr(vec![Json::Null, Json::str("a\"b\\c\nd")]),
            ),
            ("nested", Json::obj(vec![("k", Json::str("ünïcødé ✓"))])),
        ]);
        let text = value.to_text();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let parsed = Json::parse(" { \"a\" : [ 1 , \"x\\u0041\\n\" ] } ").unwrap();
        assert_eq!(parsed.get("a").unwrap().as_arr().unwrap()[0], Json::Uint(1));
        assert_eq!(
            parsed.get("a").unwrap().as_arr().unwrap()[1],
            Json::str("xA\n")
        );
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::str("\u{1F600}")
        );
    }

    #[test]
    fn rejects_out_of_subset_numbers() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("-3").is_err());
        assert!(Json::parse("1e9").is_err());
        assert!(Json::parse("[1,2]]").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(Json::parse(&nested("[", "]", MAX_NESTING)).is_ok());
        assert!(Json::parse(&nested("[", "]", MAX_NESTING + 1)).is_err());
        assert!(Json::parse(&nested("{\"a\":[", "]}", MAX_NESTING / 2)).is_ok());
        assert!(Json::parse(&nested("{\"a\":[", "]}", MAX_NESTING / 2 + 1)).is_err());
        // Unbalanced and enormous: an error, not a stack overflow.
        for open in ["[", "{\"requests\":", "[{\"a\":"] {
            let err = Json::parse(&open.repeat(1 << 20)).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn wire_keys_parse_borrowed_and_others_owned() {
        let parsed = Json::parse("{\"t\":\"iri\",\"custom\":1,\"\\u0074\":2}").unwrap();
        let Json::Obj(pairs) = &parsed else {
            panic!("not an object: {parsed:?}");
        };
        let borrowed: Vec<bool> = pairs
            .iter()
            .map(|(k, _)| matches!(k, Cow::Borrowed(_)))
            .collect();
        // An escaped spelling of a wire key is still that key.
        assert_eq!(borrowed, [true, false, true]);
        assert_eq!(parsed.get("custom"), Some(&Json::Uint(1)));
        assert_eq!(parsed, Json::parse(&parsed.to_text()).unwrap());
    }

    // ------------------------------------------------------------ oracle

    /// The string decoder this module used before it scanned by span,
    /// kept verbatim as the reference the new one is compared against.
    /// (It re-validates the whole remaining input per character, which
    /// is why it is no longer the implementation.)
    fn old_parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at offset {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u{hex}"))?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                let next =
                                    bytes.get(*pos + 5..*pos + 11).ok_or("lone surrogate")?;
                                let (tag, lo_bytes) = next.split_at(2);
                                if tag != b"\\u" {
                                    return Err("lone surrogate".to_owned());
                                }
                                let lo_hex =
                                    std::str::from_utf8(lo_bytes).map_err(|_| "bad surrogate")?;
                                let lo = u32::from_str_radix(lo_hex, 16)
                                    .map_err(|_| format!("bad \\u{lo_hex}"))?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_owned());
                                }
                                *pos += 6;
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(code).ok_or(format!("invalid codepoint \\u{hex}"))?
                            };
                            out.push(c);
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = bytes
                        .get(*pos..)
                        .map(std::str::from_utf8)
                        .ok_or("truncated string")?
                        .map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("truncated string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the literal at the start of `text` with both decoders and
    /// asserts they agree: the same value ending at the same offset, or
    /// an error from both.
    fn assert_decoders_agree(text: &str) {
        let mut old_pos = 0;
        let old = old_parse_string(text.as_bytes(), &mut old_pos)
            .ok()
            .map(|value| (value, old_pos));
        let mut parser = Parser { text, pos: 0 };
        let new = parser
            .string()
            .ok()
            .map(|value| (value.into_owned(), parser.pos));
        assert_eq!(new, old, "decoding {text:?}");
    }

    /// Pieces of a string literal's inside: plain runs, every escape,
    /// and every way an escape can be wrong.
    const FRAGMENTS: [&str; 36] = [
        "a",
        " plain run ",
        "é",
        "日本",
        "🦀",
        "\u{1}",
        "\u{7f}",
        "/",
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\r",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\u65E5",
        "\\u0000",
        "\\uffff",
        "\\ud83d\\ude00",
        "\\uD83E\\uDD80",
        "\\ud800",
        "\\udc00",
        "\\ud83d\\u0041",
        "\\ud83d\\n",
        "\\ud83dé",
        "\\u12",
        "\\u+041",
        "\\u00é9",
        "\\uZZZZ",
        "\\x",
        "\\",
        "\"",
        "\\u",
    ];

    #[test]
    fn decoders_agree_on_the_known_error_cases() {
        for text in [
            "1.5",
            "-3",
            "1e9",
            "[1,2]]",
            "\"\\ud800\"",
            "",
            "\"",
            "\"abc",
            "\"\\",
            "\"\\u",
            "\"\\u00",
            "\"\\ud83d\\ude0",
            "\"\\ud83d\\ude00",
            "\"ok\" trailing",
        ] {
            assert_decoders_agree(text);
        }
        for fragment in FRAGMENTS {
            assert_decoders_agree(&format!("\"{fragment}\""));
            assert_decoders_agree(&format!("\"{fragment}"));
        }
    }

    // ------------------------------------------------------- generators

    fn arb_string() -> BoxedStrategy<String> {
        const CHARS: [char; 20] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}',
            '\u{1f}', '\u{7f}', 'é', 'λ', '日', '\u{ffff}', '🦀',
        ];
        prop_oneof![
            ".{0,24}",
            vec(0usize..CHARS.len(), 0..16)
                .prop_map(|picks| picks.into_iter().filter_map(|i| CHARS.get(i)).collect()),
        ]
        .boxed()
    }

    fn arb_json(depth: u32) -> BoxedStrategy<Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            (0u64..2).prop_map(|b| Json::Bool(b == 1)),
            (0u64..1000).prop_map(Json::Uint),
            (u64::MAX - 3..u64::MAX).prop_map(|n| Json::Uint(n + 1)),
            arb_string().prop_map(Json::Str),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        // Half the keys are the wire's own, which parse back borrowed.
        let key = prop_oneof![
            (0usize..WIRE_KEYS.len())
                .prop_map(|i| WIRE_KEYS.get(i).map_or(String::new(), |k| (*k).to_owned())),
            arb_string(),
        ]
        .prop_map(Cow::Owned);
        prop_oneof![
            leaf,
            vec(arb_json(depth - 1), 0..5).prop_map(Json::Arr),
            vec((key, arb_json(depth - 1)), 0..5).prop_map(Json::Obj),
        ]
        .boxed()
    }

    /// `to_text` with whatever `gap` yields around every token.
    fn spaced_text(value: &Json, gap: &mut impl FnMut() -> &'static str, out: &mut String) {
        out.push_str(gap());
        match value {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    spaced_text(item, gap, out);
                }
                out.push_str(gap());
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(gap());
                    write_json_string(k, out);
                    out.push_str(gap());
                    out.push(':');
                    spaced_text(v, gap, out);
                }
                out.push_str(gap());
                out.push('}');
            }
            scalar => scalar.write(out),
        }
        out.push_str(gap());
    }

    proptest! {
        /// Whatever tree the writer is given, the parser gives it back —
        /// from the compact text and from the same tokens spread out
        /// with whitespace.
        #[test]
        fn trees_round_trip(value in arb_json(3), first_gap in 0usize..4) {
            let text = value.to_text();
            prop_assert_eq!(&Json::parse(&text).expect("compact text parses"), &value);
            let mut spaced = String::new();
            let mut at = first_gap;
            let mut gap = || {
                at += 1;
                [" ", "", "\n\t", "\r\n  "][at % 4]
            };
            spaced_text(&value, &mut gap, &mut spaced);
            prop_assert_eq!(&Json::parse(&spaced).expect("spaced text parses"), &value);
        }

        /// The span-scanning string decoder and the old per-character
        /// one agree on every literal, well-formed or not, closed or not.
        #[test]
        fn string_decoder_matches_the_old_one(
            picks in vec(0usize..FRAGMENTS.len(), 0..10),
            closed in 0u64..4,
        ) {
            let mut text = String::from("\"");
            text.extend(picks.iter().filter_map(|i| FRAGMENTS.get(*i)).copied());
            if closed > 0 {
                text.push('"');
            }
            assert_decoders_agree(&text);
        }

        /// What the writer escapes, both decoders read back.
        #[test]
        fn written_strings_decode_alike(value in arb_string()) {
            let mut text = String::new();
            write_json_string(&value, &mut text);
            assert_decoders_agree(&text);
            prop_assert_eq!(Json::parse(&text), Ok(Json::Str(value)));
        }
    }
}
