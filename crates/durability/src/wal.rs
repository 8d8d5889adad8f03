//! Write-ahead log records.
//!
//! Mutations buffer in memory and hit the log as one append per
//! `publish()` (group commit): every mutation record of the epoch
//! followed by a commit record carrying the published snapshot's
//! fingerprint, then one fsync. The fsync returning is the ack.
//!
//! ## Record format
//!
//! ```text
//! len: u32 LE     payload length
//! crc: u32 LE     CRC-32 of the payload
//! payload:
//!   epoch: u64 LE
//!   kind:  u8     1 = insert, 2 = remove, 3 = batch, 4 = commit
//!   body:         terms (insert/remove), count + triples (batch),
//!                 fingerprint u64 (commit)
//! ```
//!
//! [`scan`] walks a byte buffer record by record and stops at the first
//! record that is truncated, oversized, fails its checksum, or does not
//! decode — the *torn-tail cut*. Everything before the cut is returned;
//! nothing after it is ever interpreted. Replay applies an epoch's
//! mutations only when its commit record survived the cut, so a torn
//! group commit rolls back whole.

use crate::crc::crc32;
use crate::error::DurabilityError;
use sofya_rdf::segment::{decode_term, encode_term, ByteReader};
use sofya_rdf::Term;

/// Largest accepted record payload: a corrupt length prefix beyond this
/// is treated as the torn tail, not as an allocation request.
const MAX_RECORD_BYTES: usize = 256 * 1024 * 1024;

const KIND_INSERT: u8 = 1;
const KIND_REMOVE: u8 = 2;
const KIND_BATCH: u8 = 3;
const KIND_COMMIT: u8 = 4;

/// One logged mutation, in store terms (ids are assigned at replay by
/// re-interning in the original order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `insert_terms(s, p, o)` that inserted a new triple.
    Insert(Term, Term, Term),
    /// `remove` of a present triple.
    Remove(Term, Term, Term),
    /// A `load_batch_terms` call, verbatim (pre-dedup), so replay
    /// interns terms in the exact original order.
    Batch(Vec<(Term, Term, Term)>),
}

/// One decoded WAL record.
// The size skew is deliberate: records live briefly (append encode /
// replay decode) and boxing every op would cost an allocation per
// journalled mutation on the publish hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// A buffered mutation of the tagged epoch.
    Op(WalOp),
    /// The epoch's commit marker: all preceding records of this epoch
    /// are durable together, and the snapshot they produce has this
    /// fingerprint.
    Commit {
        /// `StoreSnapshot::fingerprint()` of the published state.
        fingerprint: u64,
    },
}

/// A record paired with its epoch tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The publish epoch this record belongs to.
    pub epoch: u64,
    /// The decoded entry.
    pub entry: WalEntry,
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian u32 at `pos`, or `None` past the end.
fn read_u32_le(bytes: &[u8], pos: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(pos..pos.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Appends one record to `buf`: `body` writes what follows the kind,
/// then length and checksum are patched into the header reserved before
/// the payload. After an error `buf` must be discarded.
fn frame(
    buf: &mut Vec<u8>,
    epoch: u64,
    kind: u8,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<(), DurabilityError> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    push_u64(buf, epoch);
    buf.push(kind);
    body(buf);
    let (head, payload) = buf.split_at_mut(start + 8);
    let len = u32::try_from(payload.len())
        .map_err(|_| DurabilityError::Corrupt("wal record payload exceeds u32 frame".into()))?;
    let (len_slot, crc_slot) = head.split_at_mut(start).1.split_at_mut(4);
    len_slot.copy_from_slice(&len.to_le_bytes());
    crc_slot.copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

fn encode_triple(buf: &mut Vec<u8>, (s, p, o): (&Term, &Term, &Term)) {
    encode_term(buf, s);
    encode_term(buf, p);
    encode_term(buf, o);
}

/// [`append_record`] of an op held by reference.
pub(crate) fn append_op(buf: &mut Vec<u8>, epoch: u64, op: &WalOp) -> Result<(), DurabilityError> {
    match op {
        WalOp::Insert(s, p, o) => {
            frame(buf, epoch, KIND_INSERT, |buf| encode_triple(buf, (s, p, o)))
        }
        WalOp::Remove(s, p, o) => {
            frame(buf, epoch, KIND_REMOVE, |buf| encode_triple(buf, (s, p, o)))
        }
        WalOp::Batch(triples) => {
            let count = u32::try_from(triples.len()).map_err(|_| {
                DurabilityError::Corrupt("wal batch exceeds u32::MAX triples".into())
            })?;
            frame(buf, epoch, KIND_BATCH, |buf| {
                push_u32(buf, count);
                triples
                    .iter()
                    .for_each(|(s, p, o)| encode_triple(buf, (s, p, o)));
            })
        }
    }
}

/// Appends one framed record to `buf`.
///
/// Errors with [`DurabilityError::Corrupt`] if a length field overflows
/// the u32 frame (a >4 GiB batch or payload) instead of panicking the
/// publishing worker.
pub fn append_record(
    buf: &mut Vec<u8>,
    epoch: u64,
    entry: &WalEntry,
) -> Result<(), DurabilityError> {
    match entry {
        WalEntry::Op(op) => append_op(buf, epoch, op),
        WalEntry::Commit { fingerprint } => {
            frame(buf, epoch, KIND_COMMIT, |buf| push_u64(buf, *fingerprint))
        }
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut reader = ByteReader::new(payload);
    let epoch = reader.u64().ok()?;
    let kind = reader.u8().ok()?;
    let entry = match kind {
        KIND_INSERT | KIND_REMOVE => {
            let s = decode_term(&mut reader).ok()?;
            let p = decode_term(&mut reader).ok()?;
            let o = decode_term(&mut reader).ok()?;
            let op = if kind == KIND_INSERT {
                WalOp::Insert(s, p, o)
            } else {
                WalOp::Remove(s, p, o)
            };
            WalEntry::Op(op)
        }
        KIND_BATCH => {
            let count = reader.u32().ok()? as usize;
            if count > reader.remaining() {
                return None;
            }
            let mut triples = Vec::with_capacity(count);
            for _ in 0..count {
                let s = decode_term(&mut reader).ok()?;
                let p = decode_term(&mut reader).ok()?;
                let o = decode_term(&mut reader).ok()?;
                triples.push((s, p, o));
            }
            WalEntry::Op(WalOp::Batch(triples))
        }
        KIND_COMMIT => WalEntry::Commit {
            fingerprint: reader.u64().ok()?,
        },
        _ => return None,
    };
    // A record with trailing garbage inside its checksummed payload is
    // an encoder we don't know; treat it as the tail.
    (reader.remaining() == 0).then_some(WalRecord { epoch, entry })
}

/// Decodes every valid record from the front of `bytes`.
///
/// Returns the records and the byte offset of the cut: the end of the
/// last valid record. Bytes past the cut are a torn or corrupt tail and
/// must be discarded (the log truncates to the cut on recovery so later
/// appends never land after garbage).
pub fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let (Some(len), Some(crc)) = (read_u32_le(bytes, pos), read_u32_le(bytes, pos + 4)) {
        let len = len as usize;
        if len > MAX_RECORD_BYTES {
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        pos += 8 + len;
    }
    (records, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<(u64, WalEntry)> {
        vec![
            (
                1,
                WalEntry::Op(WalOp::Insert(
                    Term::iri("e:s"),
                    Term::iri("e:p"),
                    Term::literal("v"),
                )),
            ),
            (1, WalEntry::Commit { fingerprint: 42 }),
            (
                2,
                WalEntry::Op(WalOp::Batch(vec![
                    (Term::iri("e:a"), Term::iri("e:p"), Term::iri("e:b")),
                    (
                        Term::iri("e:b"),
                        Term::iri("e:p"),
                        Term::lang_literal("x", "en"),
                    ),
                ])),
            ),
            (
                2,
                WalEntry::Op(WalOp::Remove(
                    Term::iri("e:s"),
                    Term::iri("e:p"),
                    Term::literal("v"),
                )),
            ),
            (2, WalEntry::Commit { fingerprint: 7 }),
        ]
    }

    fn encoded() -> Vec<u8> {
        let mut buf = Vec::new();
        for (epoch, entry) in sample_records() {
            append_record(&mut buf, epoch, &entry).expect("encode");
        }
        buf
    }

    /// The bytes the encoder wrote before it borrowed its ops and patched
    /// the header in place (computed outside this crate: `zlib.crc32` over
    /// the documented layout, and equal to the previous commit's output).
    /// `scan` and replay read what is on disk, so these must not move.
    #[test]
    fn a_mixed_epoch_encodes_to_the_golden_bytes() {
        const GOLDEN: &str = "\
            1f00000021c187ae0700000000000000010003000000653a730003000000653a70020100000076\
            4b0000007d4ce31d070000000000000003020000000003000000653a610003000000653a700301\
            0000007802000000656e0003000000653a620003000000653a7104020000003432070000007873\
            643a696e74\
            1f0000001cf862d80700000000000000020003000000653a730003000000653a70020100000076\
            11000000d4e18895070000000000000004efcdab8967452301";
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let (s, p, v) = (Term::iri("e:s"), Term::iri("e:p"), Term::literal("v"));
        let ops = [
            WalOp::Insert(s.clone(), p.clone(), v.clone()),
            WalOp::Batch(vec![
                (Term::iri("e:a"), p.clone(), Term::lang_literal("x", "en")),
                (
                    Term::iri("e:b"),
                    Term::iri("e:q"),
                    Term::typed_literal("42", "xsd:int"),
                ),
            ]),
            WalOp::Remove(s, p, v),
        ];
        let fingerprint = 0x0123_4567_89ab_cdef;
        // The way `commit` encodes: ops by reference, then the marker.
        let mut borrowed = Vec::new();
        for op in &ops {
            append_op(&mut borrowed, 7, op).expect("encode");
        }
        append_record(&mut borrowed, 7, &WalEntry::Commit { fingerprint }).expect("encode");
        assert_eq!(borrowed, golden);
        // The way recovery re-encodes the records it keeps.
        let mut owned = Vec::new();
        for op in ops {
            append_record(&mut owned, 7, &WalEntry::Op(op)).expect("encode");
        }
        append_record(&mut owned, 7, &WalEntry::Commit { fingerprint }).expect("encode");
        assert_eq!(owned, golden);
        assert_eq!(scan(&golden).1, golden.len());
    }

    #[test]
    fn records_round_trip() {
        let buf = encoded();
        let (records, cut) = scan(&buf);
        assert_eq!(cut, buf.len());
        let expected: Vec<WalRecord> = sample_records()
            .into_iter()
            .map(|(epoch, entry)| WalRecord { epoch, entry })
            .collect();
        assert_eq!(records, expected);
    }

    #[test]
    fn every_truncation_cuts_at_a_record_boundary() {
        let buf = encoded();
        let (full, _) = scan(&buf);
        let mut boundaries = vec![0usize];
        {
            let mut pos = 0;
            for _ in &full {
                let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 8 + len;
                boundaries.push(pos);
            }
        }
        for cut_at in 0..buf.len() {
            let (records, consumed) = scan(&buf[..cut_at]);
            // The consumed prefix is the largest record boundary ≤ cut.
            let expect = *boundaries.iter().filter(|&&b| b <= cut_at).max().unwrap();
            assert_eq!(consumed, expect, "cut at {cut_at}");
            assert_eq!(
                records.len(),
                boundaries.iter().filter(|&&b| b <= cut_at && b > 0).count()
            );
            assert_eq!(records[..], full[..records.len()]);
        }
    }

    #[test]
    fn corruption_anywhere_cuts_before_the_corrupt_record() {
        let buf = encoded();
        let (full, _) = scan(&buf);
        // Start offset of the record each byte belongs to.
        let mut record_start = vec![0usize; buf.len()];
        {
            let mut pos = 0;
            while pos < buf.len() {
                let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
                for b in record_start.iter_mut().skip(pos).take(8 + len) {
                    *b = pos;
                }
                pos += 8 + len;
            }
        }
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            let (records, consumed) = scan(&bad);
            // The scan keeps every record before the corrupt one intact
            // and cuts exactly at the corrupt record's start.
            assert_eq!(consumed, record_start[i], "flip at {i}");
            assert_eq!(records[..], full[..records.len()], "flip at {i}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_a_cut_not_an_allocation() {
        let mut buf = Vec::new();
        push_u32(&mut buf, u32::MAX);
        push_u32(&mut buf, 0);
        buf.extend_from_slice(&[0u8; 64]);
        let (records, consumed) = scan(&buf);
        assert!(records.is_empty());
        assert_eq!(consumed, 0);
    }
}
