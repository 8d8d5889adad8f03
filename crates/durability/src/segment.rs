//! Checksummed segment files and the manifest.
//!
//! Every durable file except the WAL uses one self-validating frame:
//!
//! ```text
//! magic: 8 bytes  "SOFYASG2"
//! kind:  u8       1 = dict delta, 2 = triple runs, 3 = manifest
//! len:   u64 LE   payload length
//! crc:   u32 LE   CRC-32 of the payload
//! payload
//! ```
//!
//! Payloads reuse the `sofya_rdf::segment` codecs. A dictionary segment
//! is its first term id and a run of terms. A run segment is two id
//! triple runs in SPO order: the keys it adds to what the run segments
//! listed before it build, then the keys it removes. The first one
//! starts from the empty store, so a base and a delta are one format.
//!
//! The manifest lists the durable epoch, its snapshot fingerprint, the
//! run segments in the order recovery applies them and the dictionary
//! segments (append-only term ranges):
//!
//! ```text
//! epoch: u64, fingerprint: u64, term_count: u32, triple_count: u64
//! runs:  u32 count × (name: string, adds: u64, removes: u64)
//! dicts: u32 count × (name: string, start: u32, count: u32)
//! ```
//!
//! It is written to `MANIFEST.tmp`, fsynced, then atomically renamed over
//! `MANIFEST` — the rename is the checkpoint's commit point. A directory
//! with the earlier magic, `SOFYASEG`, names one runs file and is refused.

use crate::crc::crc32;
use crate::error::DurabilityError;
use crate::io::StorageIo;
use sofya_rdf::segment::ByteReader;

const MAGIC: &[u8; 8] = b"SOFYASG2";

/// The WAL file name.
pub const WAL_FILE: &str = "wal.log";
/// The manifest file name (the durable root).
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Scratch name the manifest is staged under before its atomic rename.
pub const MANIFEST_TMP_FILE: &str = "MANIFEST.tmp";

/// Segment frame kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// A dictionary delta: a contiguous range of terms in id order.
    Dict,
    /// SPO keys added to and removed from the run segments before it.
    Runs,
    /// The manifest.
    Manifest,
}

impl SegmentKind {
    fn tag(self) -> u8 {
        match self {
            SegmentKind::Dict => 1,
            SegmentKind::Runs => 2,
            SegmentKind::Manifest => 3,
        }
    }
}

/// Writes `payload` under `name` as a framed segment and fsyncs it.
pub fn write_segment(
    io: &dyn StorageIo,
    name: &str,
    kind: SegmentKind,
    payload: &[u8],
) -> Result<(), DurabilityError> {
    let mut framed = Vec::with_capacity(21 + payload.len());
    framed.extend_from_slice(MAGIC);
    framed.push(kind.tag());
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    io.write(name, &framed)?;
    io.fsync(name)?;
    Ok(())
}

/// Reads and validates the segment `name`, returning its payload.
pub fn read_segment(
    io: &dyn StorageIo,
    name: &str,
    kind: SegmentKind,
) -> Result<Vec<u8>, DurabilityError> {
    let bytes = io.read(name)?;
    let corrupt = |what: &str| DurabilityError::Corrupt(format!("segment {name}: {what}"));
    // Checked header parse: a truncated or hostile file must come back
    // as Corrupt, never as a panic in the recovery path.
    let payload = bytes.get(21..).ok_or_else(|| corrupt("truncated header"))?;
    if bytes.get(..8) != Some(MAGIC.as_slice()) {
        return Err(corrupt("bad magic"));
    }
    if bytes.get(8) != Some(&kind.tag()) {
        return Err(corrupt("wrong segment kind"));
    }
    let len = bytes
        .get(9..17)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| corrupt("truncated header"))?;
    if len != payload.len() as u64 {
        return Err(corrupt("length mismatch"));
    }
    let crc = bytes
        .get(17..21)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| corrupt("truncated header"))?;
    if crc32(payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload.to_vec())
}

/// One dictionary delta segment: terms `[start, start + count)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictSegment {
    /// File name (`dict-<start>-<end>.seg`).
    pub name: String,
    /// First term id covered.
    pub start: u32,
    /// Number of terms.
    pub count: u32,
}

/// One run segment: what it adds to and removes from what the run
/// segments listed before it build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunsSegment {
    /// File name (`runs-<epoch>.seg`).
    pub name: String,
    /// Number of added triples.
    pub adds: u64,
    /// Number of removed triples.
    pub removes: u64,
}

/// The decoded manifest: everything recovery needs to rebuild the
/// checkpointed snapshot before replaying the WAL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// The durable epoch this checkpoint captured.
    pub epoch: u64,
    /// `StoreSnapshot::fingerprint()` of the checkpointed state.
    pub fingerprint: u64,
    /// Total interned terms at the checkpoint.
    pub term_count: u32,
    /// Total triples at the checkpoint.
    pub triple_count: u64,
    /// Run segments in the order they apply: a base, then its deltas.
    pub runs: Vec<RunsSegment>,
    /// Dictionary segments in id order.
    pub dict_segments: Vec<DictSegment>,
}

fn push_string(buf: &mut Vec<u8>, s: &str) -> Result<(), DurabilityError> {
    let len = u32::try_from(s.len())
        .map_err(|_| DurabilityError::Corrupt("manifest string exceeds u32 frame".into()))?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn push_count(buf: &mut Vec<u8>, n: usize) -> Result<(), DurabilityError> {
    let n = u32::try_from(n)
        .map_err(|_| DurabilityError::Corrupt("manifest segment count exceeds u32".into()))?;
    buf.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

impl Manifest {
    /// Encodes the manifest payload (framing is [`write_segment`]'s
    /// job). Errors with [`DurabilityError::Corrupt`] if a length field
    /// overflows its u32 slot instead of panicking mid-checkpoint.
    pub fn encode(&self) -> Result<Vec<u8>, DurabilityError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.term_count.to_le_bytes());
        buf.extend_from_slice(&self.triple_count.to_le_bytes());
        push_count(&mut buf, self.runs.len())?;
        for seg in &self.runs {
            push_string(&mut buf, &seg.name)?;
            buf.extend_from_slice(&seg.adds.to_le_bytes());
            buf.extend_from_slice(&seg.removes.to_le_bytes());
        }
        push_count(&mut buf, self.dict_segments.len())?;
        for seg in &self.dict_segments {
            push_string(&mut buf, &seg.name)?;
            buf.extend_from_slice(&seg.start.to_le_bytes());
            buf.extend_from_slice(&seg.count.to_le_bytes());
        }
        Ok(buf)
    }

    /// The segment files this manifest lists.
    pub(crate) fn files(&self) -> impl Iterator<Item = &str> {
        let runs = self.runs.iter().map(|seg| seg.name.as_str());
        runs.chain(self.dict_segments.iter().map(|seg| seg.name.as_str()))
    }

    /// Decodes a manifest payload.
    pub fn decode(payload: &[u8]) -> Result<Manifest, DurabilityError> {
        let mut reader = ByteReader::new(payload);
        let mut read = || -> Result<Manifest, sofya_rdf::CodecError> {
            let epoch = reader.u64()?;
            let fingerprint = reader.u64()?;
            let term_count = reader.u32()?;
            let triple_count = reader.u64()?;
            // A count sizes no allocation: a wrong one runs out of input.
            let mut runs = Vec::new();
            for _ in 0..reader.u32()? {
                let (name, adds, removes) = (reader.string()?, reader.u64()?, reader.u64()?);
                runs.push(RunsSegment {
                    name,
                    adds,
                    removes,
                });
            }
            let mut dict_segments = Vec::new();
            for _ in 0..reader.u32()? {
                let (name, start, count) = (reader.string()?, reader.u32()?, reader.u32()?);
                dict_segments.push(DictSegment { name, start, count });
            }
            Ok(Manifest {
                epoch,
                fingerprint,
                term_count,
                triple_count,
                runs,
                dict_segments,
            })
        };
        read().map_err(|e| DurabilityError::Corrupt(format!("manifest: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    fn sample() -> Manifest {
        Manifest {
            epoch: 12,
            fingerprint: 0xDEAD_BEEF,
            term_count: 9,
            triple_count: 5,
            runs: vec![
                RunsSegment {
                    name: "runs-0000000000000009.seg".into(),
                    adds: 6,
                    removes: 0,
                },
                RunsSegment {
                    name: "runs-0000000000000012.seg".into(),
                    adds: 1,
                    removes: 2,
                },
            ],
            dict_segments: vec![
                DictSegment {
                    name: "dict-00000000.seg".into(),
                    start: 0,
                    count: 6,
                },
                DictSegment {
                    name: "dict-00000006.seg".into(),
                    start: 6,
                    count: 3,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode().expect("encode")).unwrap(), m);
    }

    #[test]
    fn segment_file_round_trips_and_validates() {
        let io = MemIo::new();
        let payload = sample().encode().expect("encode");
        write_segment(&io, "m", SegmentKind::Manifest, &payload).unwrap();
        assert_eq!(
            read_segment(&io, "m", SegmentKind::Manifest).unwrap(),
            payload
        );
        // Wrong kind.
        assert!(read_segment(&io, "m", SegmentKind::Dict).is_err());
        // Any corrupted byte fails validation.
        let framed = io.read("m").unwrap();
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            io.write("bad", &bad).unwrap();
            assert!(
                read_segment(&io, "bad", SegmentKind::Manifest).is_err(),
                "flip at {i} accepted"
            );
        }
        // Truncations fail validation.
        for cut in 0..framed.len() {
            io.write("cut", &framed[..cut]).unwrap();
            assert!(read_segment(&io, "cut", SegmentKind::Manifest).is_err());
        }
    }

    #[test]
    fn manifest_decode_rejects_garbage() {
        assert!(Manifest::decode(&[]).is_err());
        let mut truncated = sample().encode().expect("encode");
        truncated.truncate(10);
        assert!(Manifest::decode(&truncated).is_err());
        // A huge segment count — of either list — must not allocate.
        let runs_bytes: usize = sample().runs.iter().map(|r| 4 + r.name.len() + 16).sum();
        for pos in [28, 28 + 4 + runs_bytes] {
            let mut bad = sample().encode().expect("encode");
            bad[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(Manifest::decode(&bad).is_err());
        }
    }
}
