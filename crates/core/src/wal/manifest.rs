//! The WAL segment-set manifest: the atomic publish point of a flush
//! or compaction.
//!
//! Same discipline as checkpoint generations ([`crate::ckpt::manifest`]):
//! segments are written first, the manifest last, and the manifest is a
//! single whole-object write with a trailing CRC32 — a crash anywhere
//! before it leaves the previous segment set in force, never a torn
//! one. `trim_seq` records the highest WAL sequence the published
//! segments cover: replay skips log records at or below it, which is
//! what makes the post-publish log truncation safe to crash out of.
//!
//! On the wire it is the same `framing` publish record as the checkpoint
//! manifest with a different magic and field list (DESIGN.md §16 "Byte
//! layouts", row 16).

use crate::framing::{begin_record, open_record, put_str16, seal_trailing, Malformed};
use crate::FsError;

/// Manifest magic bytes.
pub const MAGIC: [u8; 4] = *b"FSWL";

/// Current manifest format version.
pub const VERSION: u16 = 1;

/// One segment as published by a manifest. Order is newest-first: a
/// lookup walks the list front to back and stops at the first version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSegmentMeta {
    /// Object name of the segment on the medium.
    pub name: String,
    /// Segment blob length in bytes.
    pub bytes: u64,
    /// CRC32 of the whole blob (verified before parsing).
    pub crc: u32,
    /// Lowest WAL sequence the segment covers.
    pub first_seq: u64,
    /// Highest WAL sequence the segment covers.
    pub last_seq: u64,
    /// Entry count (versions, tombstones included).
    pub entries: u32,
}

/// A published WAL segment set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalManifest {
    /// Monotonic publish counter (flushes + compactions).
    pub publish: u64,
    /// Highest WAL sequence covered by the segments: replay skips log
    /// records with `seq <= trim_seq`.
    pub trim_seq: u64,
    /// Segments, newest first.
    pub segments: Vec<WalSegmentMeta>,
}

impl WalManifest {
    /// Serialise, appending the trailing CRC32.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = begin_record(MAGIC, VERSION, 32 + self.segments.len() * 48);
        out.extend_from_slice(&self.publish.to_le_bytes());
        out.extend_from_slice(&self.trim_seq.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for s in &self.segments {
            put_str16(&mut out, &s.name);
            out.extend_from_slice(&s.bytes.to_le_bytes());
            out.extend_from_slice(&s.crc.to_le_bytes());
            out.extend_from_slice(&s.first_seq.to_le_bytes());
            out.extend_from_slice(&s.last_seq.to_le_bytes());
            out.extend_from_slice(&s.entries.to_le_bytes());
        }
        seal_trailing(&mut out);
        out
    }

    /// Decode and CRC-verify a manifest.
    pub fn decode(buf: &[u8]) -> Result<WalManifest, FsError> {
        let parse = || -> Result<WalManifest, Malformed> {
            let mut r = open_record(buf, MAGIC, VERSION)?;
            let (publish, trim_seq) = (r.u64()?, r.u64()?);
            let count = r.count(2 + 8 + 4 + 8 + 8 + 4)?;
            let mut segments = Vec::with_capacity(count);
            for _ in 0..count {
                segments.push(WalSegmentMeta {
                    name: r.str16()?.to_string(),
                    bytes: r.u64()?,
                    crc: r.u32()?,
                    first_seq: r.u64()?,
                    last_seq: r.u64()?,
                    entries: r.u32()?,
                });
            }
            r.finish()?;
            Ok(WalManifest { publish, trim_seq, segments })
        };
        parse().map_err(|e| e.corrupt("wal manifest"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WalManifest {
        WalManifest {
            publish: 3,
            trim_seq: 41,
            segments: vec![
                WalSegmentMeta {
                    name: "wal/seg-00000002".into(),
                    bytes: 9000,
                    crc: 0xFACE,
                    first_seq: 20,
                    last_seq: 41,
                    entries: 12,
                },
                WalSegmentMeta {
                    name: "wal/seg-00000001".into(),
                    bytes: 4096,
                    crc: 0xBEEF,
                    first_seq: 1,
                    last_seq: 19,
                    entries: 7,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(WalManifest::decode(&m.encode()).unwrap(), m);
        let empty = WalManifest::default();
        assert_eq!(WalManifest::decode(&empty.encode()).unwrap(), empty);
    }
}
