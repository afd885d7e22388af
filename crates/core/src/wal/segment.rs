//! Immutable flushed segments: pack-format entries behind a bloom
//! filter.
//!
//! A segment is what one memtable flush (or one compaction) produces: a
//! header holding the sequence range and the bloom filter (loaded at
//! open), then a pack partition (read on lookup) — DESIGN.md §13 "Byte
//! layouts", rows 13, 14 and 1.
//!
//! The entry area reuses [`crate::pack::PartitionBuilder`] /
//! [`crate::pack::parse_partition`] unchanged — path, codec and stat
//! are the pack fields; the per-version metadata the LSM needs (`seq`,
//! `expires_us`, a tombstone flag) rides a fixed prefix of each entry's
//! data field.
//!
//! Values are compressed with the store's configured codec at flush
//! (falling back to stored-raw when compression does not pay), so the
//! durable footprint of the write path matches the read path's packed
//! partitions. The bloom filter sits in the header so a store can keep
//! every filter in memory and answer negative lookups without reading
//! the entry area at all.

use fanstore_compress::registry::create;
use fanstore_compress::{CodecFamily, CodecId};

use crate::framing::{Malformed, Reader};
use crate::pack::{parse_partition, PartitionBuilder};
use crate::stat::FileStat;
use crate::FsError;

use super::bloom::BloomFilter;
use super::log::FLAG_TOMBSTONE;
use super::memtable::MemEntry;

/// Segment magic bytes.
pub const MAGIC: [u8; 4] = *b"FSWS";

/// Current segment format version.
pub const VERSION: u16 = 1;

/// Per-entry metadata prefix on the pack data field.
const META_PREFIX: usize = 8 + 8 + 1;

/// One decoded segment entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegEntry {
    /// Object path.
    pub path: String,
    /// Version (WAL sequence) of this write.
    pub seq: u64,
    /// Absolute TTL expiry (0 = none).
    pub expires_us: u64,
    /// Whether this version deletes the key.
    pub tombstone: bool,
    /// Codec of `payload`.
    pub codec: CodecId,
    /// Uncompressed value length.
    pub raw_len: usize,
    /// Compressed (or raw) value bytes.
    pub payload: Vec<u8>,
}

impl SegEntry {
    /// Decompress the value.
    pub fn decode_value(&self) -> Result<Vec<u8>, FsError> {
        crate::node::decompress_object(self.codec, &self.payload, self.raw_len, &self.path)
    }
}

/// The header of a segment: everything a store keeps in memory.
#[derive(Debug, Clone)]
pub struct SegHeader {
    /// Lowest WAL sequence covered.
    pub first_seq: u64,
    /// Highest WAL sequence covered.
    pub last_seq: u64,
    /// The segment's bloom filter.
    pub bloom: BloomFilter,
    /// Byte offset where the pack partition starts.
    pub entries_at: usize,
}

/// Build a segment blob from sorted `(path, entry)` pairs. Returns the
/// blob plus the summed raw (uncompressed) value bytes, for compaction
/// amplification accounting. Entries must be non-empty and sorted by
/// path (the memtable and the compactor both iterate sorted).
pub fn build(
    entries: &[(String, MemEntry)],
    codec: CodecId,
    bloom_fp: f64,
) -> Result<(Vec<u8>, u64), FsError> {
    let comp = create(codec).map_err(|e| FsError::Corrupt(format!("wal segment codec: {e}")))?;
    let bloom =
        BloomFilter::from_keys(entries.iter().map(|(p, _)| p.as_str()), entries.len(), bloom_fp);
    let mut part = PartitionBuilder::new();
    let mut raw_bytes = 0u64;
    let mut first_seq = u64::MAX;
    let mut last_seq = 0u64;
    for (path, e) in entries {
        first_seq = first_seq.min(e.seq);
        last_seq = last_seq.max(e.seq);
        let raw: &[u8] = e.value.as_deref().map_or(&[], |v| v.as_slice());
        raw_bytes += raw.len() as u64;
        let (entry_codec, stored) = if raw.is_empty() {
            (CodecId::new(CodecFamily::Store, 0), Vec::new())
        } else {
            let packed = fanstore_compress::compress_to_vec(comp.as_ref(), raw);
            if packed.len() < raw.len() {
                (codec, packed)
            } else {
                (CodecId::new(CodecFamily::Store, 0), raw.to_vec())
            }
        };
        let mut data = Vec::with_capacity(META_PREFIX + stored.len());
        data.extend_from_slice(&e.seq.to_le_bytes());
        data.extend_from_slice(&e.expires_us.to_le_bytes());
        data.push(if e.value.is_none() { FLAG_TOMBSTONE } else { 0 });
        data.extend_from_slice(&stored);
        let mut stat = FileStat::regular(e.seq, raw.len() as u64);
        stat.mtime = e.expires_us;
        part.push(path, entry_codec, &stat, &data);
    }
    let bloom_bytes = bloom.encode();
    let partition = part.finish();
    let mut out = Vec::with_capacity(4 + 2 + 8 + 8 + 4 + bloom_bytes.len() + partition.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&first_seq.to_le_bytes());
    out.extend_from_slice(&last_seq.to_le_bytes());
    out.extend_from_slice(&(bloom_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&bloom_bytes);
    out.extend_from_slice(&partition);
    Ok((out, raw_bytes))
}

/// Parse just the header (magic, seq range, bloom) — the open/replay
/// path, which must not touch entry data.
pub fn parse_header(blob: &[u8]) -> Result<SegHeader, FsError> {
    let mut r = Reader::new(blob);
    let mut fixed = || -> Result<(u64, u64, &[u8]), Malformed> {
        r.tag(&MAGIC, "bad magic")?;
        r.tag(&VERSION.to_le_bytes(), "unsupported version")?;
        Ok((r.u64()?, r.u64()?, r.bytes32()?))
    };
    let (first_seq, last_seq, bloom) = fixed().map_err(|e| e.corrupt("wal segment"))?;
    let bloom = BloomFilter::decode(bloom)?;
    Ok(SegHeader { first_seq, last_seq, bloom, entries_at: r.consumed() })
}

/// Parse the full entry list (a positive lookup, verify, or compaction).
pub fn parse_entries(blob: &[u8]) -> Result<Vec<SegEntry>, FsError> {
    let header = parse_header(blob)?;
    let packed = parse_partition(&blob[header.entries_at..])?;
    let mut out = Vec::with_capacity(packed.len());
    for e in packed {
        let mut r = Reader::new(&e.data);
        let mut prefix = || Ok((r.u64()?, r.u64()?, r.u8()?));
        let (seq, expires_us, flags) = prefix().map_err(|m: Malformed| {
            m.corrupt(&format!("wal segment: {}: entry metadata", e.path))
        })?;
        out.push(SegEntry {
            seq,
            expires_us,
            tombstone: flags & FLAG_TOMBSTONE != 0,
            codec: e.codec,
            raw_len: e.stat.size as usize,
            payload: r.rest().to_vec(),
            path: e.path,
        });
    }
    Ok(out)
}

/// Convenience for tests and the store: a sorted entry list from pairs.
pub fn sorted_entries(
    pairs: impl IntoIterator<Item = (String, MemEntry)>,
) -> Vec<(String, MemEntry)> {
    let mut v: Vec<(String, MemEntry)> = pairs.into_iter().collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(seq: u64, value: Option<&[u8]>) -> MemEntry {
        MemEntry { seq, expires_us: 0, value: value.map(|v| Arc::new(v.to_vec())) }
    }

    fn lz() -> CodecId {
        CodecId::new(CodecFamily::Lz4Hc, 6)
    }

    #[test]
    fn roundtrip_values_and_tombstones() {
        let entries = sorted_entries([
            ("b/tomb".to_string(), entry(5, None)),
            ("a/data".to_string(), entry(3, Some(&b"compress me ".repeat(50)))),
        ]);
        let (blob, raw) = build(&entries, lz(), 0.01).unwrap();
        assert_eq!(raw, 600);
        let h = parse_header(&blob).unwrap();
        assert_eq!((h.first_seq, h.last_seq), (3, 5));
        assert!(h.bloom.contains("a/data") && h.bloom.contains("b/tomb"));
        let parsed = parse_entries(&blob).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].path, "a/data");
        assert!(!parsed[0].tombstone);
        assert!(parsed[0].payload.len() < 600, "repetitive value compresses");
        assert_eq!(parsed[0].decode_value().unwrap(), b"compress me ".repeat(50));
        assert!(parsed[1].tombstone);
        assert_eq!(parsed[1].seq, 5);
    }

    #[test]
    fn incompressible_values_stored_raw() {
        let noise: Vec<u8> = (0..256u32).flat_map(|i| i.to_le_bytes()).collect();
        let entries = sorted_entries([("n".to_string(), entry(1, Some(&noise)))]);
        let (blob, _) = build(&entries, lz(), 0.01).unwrap();
        let parsed = parse_entries(&blob).unwrap();
        assert_eq!(parsed[0].codec, CodecId::new(CodecFamily::Store, 0));
        assert_eq!(parsed[0].decode_value().unwrap(), noise);
    }

    #[test]
    fn header_rejects_corruption() {
        let entries = sorted_entries([("k".to_string(), entry(1, Some(b"v")))]);
        let (blob, _) = build(&entries, lz(), 0.01).unwrap();
        assert!(parse_header(&blob[..10]).is_err());
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(parse_header(&bad).is_err());
        let mut wrong_version = blob;
        wrong_version[4] = 9;
        assert!(parse_header(&wrong_version).is_err());
    }
}
