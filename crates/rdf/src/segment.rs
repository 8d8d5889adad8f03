//! Byte-level codecs for on-disk segments.
//!
//! The durability layer's segments and WAL frames hold two kinds of
//! payload: dictionary deltas (runs of [`Term`]s in id order) and triple
//! runs (SPO keys as raw `u32` ids). This module owns their binary
//! encoding so the file-format knowledge lives next to the data model;
//! framing, checksums, and recovery policy live in `sofya-durability`.
//!
//! Every decoder is total: malformed input yields a [`CodecError`],
//! never a panic or an out-of-bounds read. Lengths are validated against
//! the remaining input *before* any allocation, so a corrupt length
//! prefix cannot balloon memory.
//!
//! ## Term encoding
//!
//! ```text
//! tag: u8        0 = IRI, 1 = blank node, 2 = plain literal,
//!                3 = language-tagged literal, 4 = typed literal
//! strings        one or two of: u32 LE byte length + UTF-8 bytes
//! ```
//!
//! ## Triple-run encoding
//!
//! ```text
//! count: u64 LE, then count × (s: u32 LE, p: u32 LE, o: u32 LE)
//! ```

use crate::term::Term;
use std::fmt;

/// A malformed segment payload (truncated input, unknown tag, invalid
/// UTF-8, or an oversized length prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segment codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn truncated(what: &str) -> CodecError {
    CodecError(format!("truncated input reading {what}"))
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current offset from the start of the slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(truncated("byte run"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4).map_err(|_| truncated("u32"))?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8).map_err(|_| truncated("u64"))?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a u32-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError(format!(
                "string length {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError("non-UTF-8 string".into()))
    }
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_string(buf: &mut Vec<u8>, s: &str) {
    push_u32(buf, u32::try_from(s.len()).expect("string over 4 GiB"));
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one term to `buf`.
pub fn encode_term(buf: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            buf.push(0);
            push_string(buf, iri);
        }
        Term::BNode(label) => {
            buf.push(1);
            push_string(buf, label);
        }
        Term::Literal {
            lexical,
            lang: None,
            datatype: None,
        } => {
            buf.push(2);
            push_string(buf, lexical);
        }
        Term::Literal {
            lexical,
            lang: Some(lang),
            datatype: None,
        } => {
            buf.push(3);
            push_string(buf, lexical);
            push_string(buf, lang);
        }
        Term::Literal {
            lexical,
            datatype: Some(datatype),
            ..
        } => {
            buf.push(4);
            push_string(buf, lexical);
            push_string(buf, datatype);
        }
    }
}

/// Decodes one term.
pub fn decode_term(reader: &mut ByteReader<'_>) -> Result<Term, CodecError> {
    let tag = reader.u8().map_err(|_| truncated("term tag"))?;
    match tag {
        0 => Ok(Term::Iri(reader.string()?)),
        1 => Ok(Term::BNode(reader.string()?)),
        2 => Ok(Term::literal(reader.string()?)),
        3 => {
            let lexical = reader.string()?;
            let lang = reader.string()?;
            Ok(Term::lang_literal(lexical, lang))
        }
        4 => {
            let lexical = reader.string()?;
            let datatype = reader.string()?;
            Ok(Term::typed_literal(lexical, datatype))
        }
        other => Err(CodecError(format!("unknown term tag {other}"))),
    }
}

/// Appends a u32-count-prefixed run of terms.
pub fn encode_terms<'t>(buf: &mut Vec<u8>, terms: impl ExactSizeIterator<Item = &'t Term>) {
    push_u32(buf, u32::try_from(terms.len()).expect("over 4G terms"));
    for term in terms {
        encode_term(buf, term);
    }
}

/// Decodes a u32-count-prefixed run of terms.
pub fn decode_terms(reader: &mut ByteReader<'_>) -> Result<Vec<Term>, CodecError> {
    let count = reader.u32()? as usize;
    // Each term needs at least a tag byte plus a length prefix.
    if count > reader.remaining() {
        return Err(CodecError(format!(
            "term count {count} exceeds remaining {} bytes",
            reader.remaining()
        )));
    }
    let mut terms = Vec::with_capacity(count);
    for _ in 0..count {
        terms.push(decode_term(reader)?);
    }
    Ok(terms)
}

/// Appends a u64-count-prefixed run of id triples (the store's flushed
/// SPO order — 12 bytes per triple).
pub fn encode_triples(buf: &mut Vec<u8>, triples: &[(u32, u32, u32)]) {
    push_u64(buf, triples.len() as u64);
    buf.reserve(triples.len() * 12);
    for &(s, p, o) in triples {
        push_u32(buf, s);
        push_u32(buf, p);
        push_u32(buf, o);
    }
}

/// Decodes a u64-count-prefixed run of id triples.
pub fn decode_triples(reader: &mut ByteReader<'_>) -> Result<Vec<(u32, u32, u32)>, CodecError> {
    let count = reader.u64()?;
    let need = count
        .checked_mul(12)
        .ok_or_else(|| CodecError("triple count overflow".into()))?;
    if need > reader.remaining() as u64 {
        return Err(CodecError(format!(
            "triple count {count} exceeds remaining {} bytes",
            reader.remaining()
        )));
    }
    let mut triples = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let s = reader.u32()?;
        let p = reader.u32()?;
        let o = reader.u32()?;
        triples.push((s, p, o));
    }
    Ok(triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Term> {
        vec![
            Term::iri("http://kb/a"),
            Term::bnode("b0"),
            Term::literal("plain"),
            Term::lang_literal("bonjour", "fr"),
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
            Term::literal(""),
        ]
    }

    #[test]
    fn terms_round_trip() {
        let mut buf = Vec::new();
        let terms = samples();
        encode_terms(&mut buf, terms.iter());
        let mut reader = ByteReader::new(&buf);
        assert_eq!(decode_terms(&mut reader).unwrap(), terms);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn triples_round_trip() {
        let triples = vec![(0, 1, 2), (3, 4, 5), (u32::MAX, 0, 7)];
        let mut buf = Vec::new();
        encode_triples(&mut buf, &triples);
        let mut reader = ByteReader::new(&buf);
        assert_eq!(decode_triples(&mut reader).unwrap(), triples);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn truncation_and_garbage_error_cleanly() {
        let mut buf = Vec::new();
        encode_terms(&mut buf, samples().iter());
        // Every strict prefix fails without panicking.
        for cut in 0..buf.len() {
            assert!(decode_terms(&mut ByteReader::new(&buf[..cut])).is_err());
        }
        // Unknown tag.
        assert!(decode_term(&mut ByteReader::new(&[9, 0, 0, 0, 0])).is_err());
        // Length prefix far beyond the input must not allocate or panic.
        let huge = [2u8, 0xff, 0xff, 0xff, 0x7f];
        assert!(decode_term(&mut ByteReader::new(&huge)).is_err());
        // Triple count larger than the payload.
        let mut bad = Vec::new();
        push_u64(&mut bad, u64::MAX / 2);
        assert!(decode_triples(&mut ByteReader::new(&bad)).is_err());
    }

    #[test]
    fn non_utf8_string_is_an_error() {
        let mut buf = vec![0u8];
        push_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_term(&mut ByteReader::new(&buf)).is_err());
    }
}
