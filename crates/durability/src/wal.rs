//! The write-ahead log: one checksummed frame per commit.
//!
//! A commit appends one frame holding what the committed snapshot changed
//! since the commit before it, in ids: the terms interned since, with the
//! id of the first, and the SPO keys added and removed. Then it fsyncs
//! the log once; the fsync returning is the ack. A frame is whole or fails
//! its checksum, so there is no commit marker to wait for.
//!
//! ## Frame format
//!
//! ```text
//! len: u32 LE          payload length
//! crc: u32 LE          CRC-32 of the payload
//! payload:
//!   epoch:       u64 LE
//!   kind:        u8    5 = frame
//!   fingerprint: u64 LE  of the committed snapshot
//!   start:       u32 LE  id of the first term below
//!   terms:       u32 count × term
//!   adds:        u64 count × (s, p, o: u32 LE)
//!   removes:     u64 count × (s, p, o: u32 LE)
//! ```
//!
//! Terms and keys use the `sofya_rdf::segment` codecs, as the dictionary
//! and run segments do.
//!
//! [`scan`] walks a byte buffer frame by frame and stops at the first one
//! that is truncated, oversized or fails its checksum: the *torn-tail
//! cut*. Everything before the cut is returned; nothing after it is ever
//! interpreted. A record that passes its checksum but is not a frame was
//! written whole by another encoder — kinds 1–4 are the term-level
//! records of the previous format — so the scan refuses the log as
//! corrupt instead of cutting away what that writer acknowledged.

use crate::crc::crc32;
use crate::error::DurabilityError;
use sofya_rdf::segment::{decode_terms, decode_triples, encode_terms, encode_triples, ByteReader};
use sofya_rdf::{CodecError, Term};

/// An SPO id key.
pub type Key = (u32, u32, u32);

/// Largest accepted frame payload: a corrupt length prefix beyond this is
/// treated as the torn tail, not as an allocation request, so a commit
/// refuses to write a larger one.
const MAX_RECORD_BYTES: usize = 256 * 1024 * 1024;

/// The frame's kind tag.
const KIND_FRAME: u8 = 5;

/// One commit: what the committed snapshot changed, in ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// The epoch the commit sealed.
    pub epoch: u64,
    /// `StoreSnapshot::fingerprint()` of the committed snapshot.
    pub fingerprint: u64,
    /// The id of `terms[0]`: the dictionary's length at the commit before.
    pub start: u32,
    /// The terms interned since, in id order.
    pub terms: Vec<Term>,
    /// The SPO keys added since, ascending.
    pub adds: Vec<Key>,
    /// The SPO keys removed since, ascending.
    pub removes: Vec<Key>,
}

/// Reads a little-endian u32 at `pos`, or `None` past the end.
fn read_u32_le(bytes: &[u8], pos: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(pos..pos.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

impl Frame {
    /// Appends the frame, length and checksum first, to `buf`.
    ///
    /// Errors with [`DurabilityError::Corrupt`] if the payload is larger
    /// than [`scan`] would accept, instead of acknowledging a commit that
    /// recovery would cut. After an error `buf` must be discarded.
    pub fn encode(&self, buf: &mut Vec<u8>) -> Result<(), DurabilityError> {
        let at = buf.len();
        buf.extend_from_slice(&[0; 8]);
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.push(KIND_FRAME);
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.start.to_le_bytes());
        encode_terms(buf, self.terms.iter());
        encode_triples(buf, &self.adds);
        encode_triples(buf, &self.removes);
        let (head, payload) = buf.split_at_mut(at + 8);
        let len = match u32::try_from(payload.len()) {
            Ok(len) if payload.len() <= MAX_RECORD_BYTES => len,
            _ => {
                return Err(DurabilityError::Corrupt(format!(
                    "wal frame of {} bytes exceeds the {MAX_RECORD_BYTES}-byte limit",
                    payload.len()
                )))
            }
        };
        let (len_slot, crc_slot) = head.split_at_mut(at).1.split_at_mut(4);
        len_slot.copy_from_slice(&len.to_le_bytes());
        crc_slot.copy_from_slice(&crc32(payload).to_le_bytes());
        Ok(())
    }

    fn decode(payload: &[u8]) -> Result<Frame, CodecError> {
        let mut reader = ByteReader::new(payload);
        let epoch = reader.u64()?;
        let kind = reader.u8()?;
        if kind != KIND_FRAME {
            return Err(CodecError(format!("record kind {kind}")));
        }
        let frame = Frame {
            epoch,
            fingerprint: reader.u64()?,
            start: reader.u32()?,
            terms: decode_terms(&mut reader)?,
            adds: decode_triples(&mut reader)?,
            removes: decode_triples(&mut reader)?,
        };
        match reader.remaining() {
            0 => Ok(frame),
            n => Err(CodecError(format!("{n} bytes after the frame"))),
        }
    }
}

/// Decodes every valid frame from the front of `bytes`.
///
/// Returns the frames and the byte offset of the cut: the end of the last
/// valid frame. Bytes past the cut are a torn tail and must be discarded
/// (recovery truncates the log to the cut so later appends never land
/// after them). A record that passes its checksum and does not decode is
/// [`DurabilityError::Corrupt`].
pub fn scan(bytes: &[u8]) -> Result<(Vec<Frame>, usize), DurabilityError> {
    let mut frames = Vec::new();
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
        let frame = Frame::decode(payload).map_err(|e| {
            DurabilityError::Corrupt(format!(
                "wal record at byte {pos} passes its checksum but is not a frame ({}): \
                 a log in another format",
                e.0
            ))
        })?;
        frames.push(frame);
        pos += 8 + len;
    }
    Ok((frames, pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame {
                epoch: 1,
                fingerprint: 42,
                start: 0,
                terms: vec![Term::iri("e:s"), Term::iri("e:p"), Term::literal("v")],
                adds: vec![(0, 1, 2)],
                removes: vec![],
            },
            Frame {
                epoch: 2,
                fingerprint: 7,
                start: 3,
                terms: vec![Term::iri("e:a"), Term::lang_literal("x", "en")],
                adds: vec![(3, 1, 4), (4, 1, 0)],
                removes: vec![(0, 1, 2)],
            },
            // Terms interned by keys that were gone again by the commit.
            Frame {
                epoch: 3,
                fingerprint: 7,
                start: 5,
                terms: vec![Term::iri("e:b")],
                ..Frame::default()
            },
        ]
    }

    fn encoded() -> Vec<u8> {
        let mut buf = Vec::new();
        for frame in sample_frames() {
            frame.encode(&mut buf).expect("encode");
        }
        buf
    }

    fn hex(text: &str) -> Vec<u8> {
        let digits: Vec<char> = text.chars().filter(|c| !c.is_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(&pair.iter().collect::<String>(), 16).unwrap())
            .collect()
    }

    /// The frame layout of the module docs, byte for byte (computed
    /// outside this crate: `zlib.crc32` over the documented layout).
    /// Recovery reads what is on disk, so these must not move.
    #[test]
    fn a_frame_encodes_to_the_golden_bytes() {
        let golden = hex(
            "730000007dfed849070000000000000005efcdab896745230103000000030000000003000000
             653a6103010000007802000000656e04020000003432070000007873643a696e740200000000
             0000000000000001000000040000000300000001000000050000000100000000000000000000
             000100000002000000",
        );
        let frame = Frame {
            epoch: 7,
            fingerprint: 0x0123_4567_89ab_cdef,
            start: 3,
            terms: vec![
                Term::iri("e:a"),
                Term::lang_literal("x", "en"),
                Term::typed_literal("42", "xsd:int"),
            ],
            adds: vec![(0, 1, 4), (3, 1, 5)],
            removes: vec![(0, 1, 2)],
        };
        let mut buf = Vec::new();
        frame.encode(&mut buf).expect("encode");
        assert_eq!(buf, golden);
        assert_eq!(scan(&golden).unwrap(), (vec![frame], golden.len()));
    }

    #[test]
    fn records_round_trip() {
        let buf = encoded();
        let (frames, cut) = scan(&buf).unwrap();
        assert_eq!(cut, buf.len());
        assert_eq!(frames, sample_frames());
    }

    #[test]
    fn every_truncation_cuts_at_a_record_boundary() {
        let buf = encoded();
        let (full, _) = scan(&buf).unwrap();
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
            let (frames, consumed) = scan(&buf[..cut_at]).unwrap();
            // The consumed prefix is the largest frame boundary ≤ cut.
            let expect = *boundaries.iter().filter(|&&b| b <= cut_at).max().unwrap();
            assert_eq!(consumed, expect, "cut at {cut_at}");
            assert_eq!(
                frames.len(),
                boundaries.iter().filter(|&&b| b <= cut_at && b > 0).count()
            );
            assert_eq!(frames[..], full[..frames.len()]);
        }
    }

    #[test]
    fn corruption_anywhere_cuts_before_the_corrupt_record() {
        let buf = encoded();
        let (full, _) = scan(&buf).unwrap();
        // Start offset of the frame each byte belongs to.
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
            let (frames, consumed) = scan(&bad).unwrap();
            // The scan keeps every frame before the corrupt one intact
            // and cuts exactly at the corrupt frame's start.
            assert_eq!(consumed, record_start[i], "flip at {i}");
            assert_eq!(frames[..], full[..frames.len()], "flip at {i}");
        }
    }

    /// A checksummed record of another kind, or with bytes after its
    /// frame, was written whole by another encoder: refused, not cut.
    #[test]
    fn a_checksummed_record_that_is_not_a_frame_is_corrupt() {
        let mut frame = Vec::new();
        sample_frames()[0].encode(&mut frame).expect("encode");
        let at = format!("at byte {} ", encoded().len());
        let reframe = |payload: &[u8]| {
            let mut buf = encoded();
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(payload).to_le_bytes());
            buf.extend_from_slice(payload);
            scan(&buf)
        };
        let mut old_kind = frame[8..].to_vec();
        old_kind[8] = 4; // the previous format's commit record
        let mut trailing = frame[8..].to_vec();
        trailing.push(0);
        for payload in [old_kind, trailing] {
            match reframe(&payload) {
                Err(DurabilityError::Corrupt(what)) => assert!(what.contains(&at), "{what}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_a_cut_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        assert_eq!(scan(&buf).unwrap(), (Vec::new(), 0));
    }
}
