//! Generation manifests: the atomic publish point of a checkpoint.
//!
//! A manifest names every segment of one generation, with per-segment
//! byte counts and CRCs, and records whether the generation is delta
//! encoded against an earlier one. It is written *after* all segments —
//! under FanStore's write-once model an object only becomes visible when
//! it is finalised, so the manifest's appearance is the commit: a crash
//! anywhere before it leaves the generation invisible, never torn.
//!
//! On the wire it is a `framing` publish record — magic, version and the
//! trailing CRC are that module's; this one is the struct and its field
//! list (DESIGN.md §16 "Byte layouts", row 15).

use crate::framing::{begin_record, open_record, put_str16, seal_trailing, Malformed};
use crate::FsError;

/// Manifest magic bytes.
pub const MAGIC: [u8; 4] = *b"FSCK";

/// Current manifest format version.
pub const VERSION: u16 = 1;

/// `base` sentinel for a full (non-delta) generation.
const FULL: u64 = u64::MAX;

/// One segment as named by a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name of the segment inside the generation directory.
    pub name: String,
    /// Number of chunk frames in the segment.
    pub chunks: u32,
    /// Segment length in bytes.
    pub bytes: u64,
    /// CRC32 of the whole segment blob (cheap pre-parse integrity check).
    pub crc: u32,
}

/// A generation manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Generation number.
    pub generation: u64,
    /// Base generation for delta frames (`None` = full generation).
    pub base: Option<u64>,
    /// Chunk size the payload was split with.
    pub chunk_size: u32,
    /// Uncompressed payload length.
    pub raw_bytes: u64,
    /// Total stored segment bytes.
    pub stored_bytes: u64,
    /// Segments, in chunk order.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Serialise, appending the trailing CRC32.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = begin_record(MAGIC, VERSION, 64 + self.segments.len() * 32);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.base.unwrap_or(FULL).to_le_bytes());
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.extend_from_slice(&self.raw_bytes.to_le_bytes());
        out.extend_from_slice(&self.stored_bytes.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for s in &self.segments {
            put_str16(&mut out, &s.name);
            out.extend_from_slice(&s.chunks.to_le_bytes());
            out.extend_from_slice(&s.bytes.to_le_bytes());
            out.extend_from_slice(&s.crc.to_le_bytes());
        }
        seal_trailing(&mut out);
        out
    }

    /// Decode and CRC-verify a manifest. `raw_bytes` is at most the
    /// segments' chunk count times `chunk_size`.
    pub fn decode(buf: &[u8]) -> Result<Manifest, FsError> {
        let parse = || -> Result<Manifest, Malformed> {
            let mut r = open_record(buf, MAGIC, VERSION)?;
            let generation = r.u64()?;
            let base = Some(r.u64()?).filter(|&b| b != FULL);
            let (chunk_size, raw_bytes, stored_bytes) = (r.u32()?, r.u64()?, r.u64()?);
            let count = r.count(2 + 4 + 8 + 4)?;
            let mut segments = Vec::with_capacity(count);
            for _ in 0..count {
                segments.push(SegmentMeta {
                    name: r.str16()?.to_string(),
                    chunks: r.u32()?,
                    bytes: r.u64()?,
                    crc: r.u32()?,
                });
            }
            // `raw_bytes` sizes the buffer a generation is rebuilt into and
            // sits under a CRC anyone can compute: hold it to what the
            // chunks named here can decode to.
            let chunks: u64 = segments.iter().map(|s| u64::from(s.chunks)).sum();
            if raw_bytes > chunks.saturating_mul(u64::from(chunk_size)) {
                return Err(r.fail("raw_bytes beyond what its chunks hold"));
            }
            r.finish()?;
            Ok(Manifest { generation, base, chunk_size, raw_bytes, stored_bytes, segments })
        };
        parse().map_err(|e| e.corrupt("manifest"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            generation: 7,
            base: Some(4),
            chunk_size: 65536,
            raw_bytes: 1_000_000,
            stored_bytes: 123_456,
            segments: vec![
                SegmentMeta { name: "seg0000".into(), chunks: 16, bytes: 60_000, crc: 0xDEAD },
                SegmentMeta { name: "seg0001".into(), chunks: 3, bytes: 63_456, crc: 0xBEEF },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let full = Manifest { base: None, raw_bytes: 0, segments: Vec::new(), ..sample() };
        assert_eq!(Manifest::decode(&full.encode()).unwrap(), full);
    }
}
