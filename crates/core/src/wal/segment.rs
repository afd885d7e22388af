//! Immutable flushed segments: pack-format entries behind a bloom
//! filter, addressed through an in-memory index.
//!
//! A segment is what one memtable flush (or one compaction) produces: a
//! header holding the sequence range and the bloom filter, then a pack
//! partition — DESIGN.md §16 "Byte layouts", rows 13, 14 and 1.
//!
//! The entry area is [`crate::pack`]'s partition layout unchanged — path,
//! codec and stat are the pack fields; the per-version metadata the LSM
//! needs (`seq`, an 8-byte reserved word that must be 0, a tombstone flag)
//! rides a fixed prefix of each entry's data field. It has one writer,
//! [`assemble`], and one reader, [`index`]: a payload-free walk that yields
//! one [`SegRow`] per entry — the entry's metadata plus where its stored
//! value bytes lie in the blob. A store keeps the [`SegIndex`] (bloom
//! filter + rows) of every published segment in memory, so a lookup
//! answers "absent" and "deleted" without the medium and fetches exactly
//! one value's stored bytes otherwise; [`SegRow::carry`] borrows a row's
//! stored bytes out of the blob it indexes. Nothing here decodes a value:
//! the reader does, as it decodes an input
//! ([`crate::node::NodeState::decode_timed`]).
//!
//! Values are compressed with the store's configured codec at flush
//! (falling back to stored-raw when compression does not pay). That codec
//! sits at a different point of the paper's ratio/cost curve than the one
//! packed partitions use, for the reason the paper picks by (Eq. 3): what
//! the waiting path pays. A partition is encoded once, offline, and
//! decoded every epoch, so prep buys ratio with a slow encoder
//! (`lz4hc`); a flushed value is encoded inline in the `write_whole`
//! that crossed the memtable budget and is usually superseded or
//! unlinked a few flushes later, after one or two size-tiered merges
//! have carried it as stored, so the flush takes the cheap encoder
//! (`lz4fast-1`: ≈ 9 % more stored bytes than `lz4hc-6` on the
//! benchmark's values, for about a third of the encode time). The
//! codec id rides each entry, so a store holds both kinds at once.
//! Compaction does not decode them: it hands the stored bytes of each
//! surviving version back to [`assemble`] as they are.

use std::borrow::Cow;

use fanstore_compress::registry::create;
use fanstore_compress::{CodecFamily, CodecId};

use crate::framing::{Malformed, Reader};
use crate::pack::{read_entry, PartitionBuilder, ENTRY_OVERHEAD};
use crate::stat::FileStat;
use crate::FsError;

use super::bloom::BloomFilter;
use super::log::FLAG_TOMBSTONE;
use super::memtable::MemEntry;

/// Segment magic bytes.
pub const MAGIC: [u8; 4] = *b"FSWS";

/// Current segment format version.
pub const VERSION: u16 = 1;

/// Header bytes before the bloom filter: magic, version, the sequence
/// range and the filter's length.
const FIXED_HEADER: usize = 4 + 2 + 8 + 8 + 4;

/// Per-entry metadata prefix on the pack data field.
const META_PREFIX: usize = 8 + 8 + 1;

/// Codec id of a value stored as it is: every memtable value, and a
/// flushed one that compression does not shrink.
pub const STORED_RAW: CodecId = CodecId::new(CodecFamily::Store, 0);

/// One index row: an entry's metadata and where its stored value lies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegRow {
    /// Object path.
    pub path: String,
    /// Version (WAL sequence) of this write.
    pub seq: u64,
    /// Whether this version deletes the key.
    pub tombstone: bool,
    /// Codec of the stored value bytes.
    pub codec: CodecId,
    /// Uncompressed value length.
    pub raw_len: usize,
    /// Byte offset of the stored value bytes within the segment blob.
    pub offset: usize,
    /// Length of the stored (compressed or raw) value bytes.
    pub stored_len: usize,
}

impl SegRow {
    /// This version as a [`Part`] whose stored bytes are borrowed from
    /// `blob`, the segment the row indexes: what compaction carries into
    /// its output. `None` when the row does not lie inside `blob`.
    pub fn carry<'a>(&'a self, blob: &'a [u8]) -> Option<Part<'a>> {
        let stored = blob.get(self.offset..self.offset.checked_add(self.stored_len)?)?;
        Some(Part {
            path: &self.path,
            seq: self.seq,
            tombstone: self.tombstone,
            codec: self.codec,
            raw_len: self.raw_len,
            stored: Cow::Borrowed(stored),
        })
    }
}

/// The header of a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Everything a store keeps in memory about a published segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegIndex {
    /// Sequence range and bloom filter.
    pub header: SegHeader,
    /// One row per entry, sorted by path.
    pub rows: Vec<SegRow>,
}

impl SegIndex {
    /// The row for `path`, if the segment holds a version of it.
    pub fn find(&self, path: &str) -> Option<&SegRow> {
        self.rows.binary_search_by(|r| r.path.as_str().cmp(path)).ok().map(|i| &self.rows[i])
    }
}

/// One entry as [`assemble`] lays it down: the version's metadata and its
/// value *as stored* — freshly compressed by [`build`], or borrowed from
/// the segment a compaction carries it out of.
#[derive(Debug, Clone)]
pub struct Part<'a> {
    /// Object path.
    pub path: &'a str,
    /// Version (WAL sequence) of this write.
    pub seq: u64,
    /// Whether this version deletes the key.
    pub tombstone: bool,
    /// Codec of `stored`.
    pub codec: CodecId,
    /// Uncompressed value length.
    pub raw_len: usize,
    /// Compressed (or raw) value bytes.
    pub stored: Cow<'a, [u8]>,
}

/// A finished segment: the blob for the medium and its index, whose rows
/// are exactly what [`index`] would read back from the blob.
#[derive(Debug)]
pub struct Built {
    /// The segment bytes.
    pub blob: Vec<u8>,
    /// The index over `blob`.
    pub index: SegIndex,
}

/// Build a segment from sorted `(path, entry)` pairs, compressing each
/// value with `codec` (stored raw when that does not shrink it). Entries
/// must be non-empty and sorted by path (the memtable iterates sorted).
pub fn build(
    entries: &[(String, MemEntry)],
    codec: CodecId,
    bloom_fp: f64,
) -> Result<Built, FsError> {
    let comp = create(codec).map_err(|e| FsError::Corrupt(format!("wal segment codec: {e}")))?;
    let parts: Vec<Part<'_>> = entries
        .iter()
        .map(|(path, e)| {
            let raw: &[u8] = e.value.as_deref().map_or(&[], |v| v.as_slice());
            let packed = (!raw.is_empty())
                .then(|| fanstore_compress::compress_to_vec(comp.as_ref(), raw))
                .filter(|packed| packed.len() < raw.len());
            let (codec, stored) = match packed {
                Some(packed) => (codec, Cow::Owned(packed)),
                None => (STORED_RAW, Cow::Borrowed(raw)),
            };
            Part {
                path,
                seq: e.seq,
                tombstone: e.value.is_none(),
                codec,
                raw_len: raw.len(),
                stored,
            }
        })
        .collect();
    Ok(assemble(&parts, bloom_fp))
}

/// Lay `parts` (sorted by path) down as one segment. The blob's exact
/// size is known before the first byte is written, so header, bloom
/// filter and entries go straight into the one allocation that is handed
/// to the medium.
pub fn assemble(parts: &[Part<'_>], bloom_fp: f64) -> Built {
    let bloom = BloomFilter::from_keys(parts.iter().map(|p| p.path), parts.len(), bloom_fp);
    let entries_at = FIXED_HEADER + bloom.byte_len();
    let size = entries_at
        + 4
        + parts.iter().map(|p| ENTRY_OVERHEAD + META_PREFIX + p.stored.len()).sum::<usize>();
    let first_seq = parts.iter().map(|p| p.seq).min().unwrap_or(u64::MAX);
    let last_seq = parts.iter().map(|p| p.seq).max().unwrap_or(0);
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&first_seq.to_le_bytes());
    out.extend_from_slice(&last_seq.to_le_bytes());
    out.extend_from_slice(&(bloom.byte_len() as u32).to_le_bytes());
    out.extend_from_slice(&bloom.encode());
    let mut partition = PartitionBuilder::after(out);
    let mut rows = Vec::with_capacity(parts.len());
    for p in parts {
        let mut prefix = [0u8; META_PREFIX];
        prefix[..8].copy_from_slice(&p.seq.to_le_bytes());
        prefix[16] = if p.tombstone { FLAG_TOMBSTONE } else { 0 };
        let stat = FileStat::regular(p.seq, p.raw_len as u64);
        partition.push_split(p.path, p.codec, &stat, &prefix, &p.stored);
        rows.push(SegRow {
            path: p.path.to_string(),
            seq: p.seq,
            tombstone: p.tombstone,
            codec: p.codec,
            raw_len: p.raw_len,
            offset: entries_at + partition.byte_len() - p.stored.len(),
            stored_len: p.stored.len(),
        });
    }
    let blob = partition.finish();
    debug_assert_eq!(blob.len(), size, "segment size is computed, not grown into");
    let header = SegHeader { first_seq, last_seq, bloom, entries_at };
    Built { blob, index: SegIndex { header, rows } }
}

fn read_header(r: &mut Reader<'_>) -> Result<SegHeader, FsError> {
    let mut fixed = || -> Result<(u64, u64, &[u8]), Malformed> {
        r.tag(&MAGIC, "bad magic")?;
        r.tag(&VERSION.to_le_bytes(), "unsupported version")?;
        Ok((r.u64()?, r.u64()?, r.bytes32()?))
    };
    let (first_seq, last_seq, bloom) = fixed().map_err(|e| e.corrupt("wal segment"))?;
    let bloom = BloomFilter::decode(bloom)?;
    Ok(SegHeader { first_seq, last_seq, bloom, entries_at: r.consumed() })
}

/// Parse just the header (magic, seq range, bloom); the entry area is
/// not looked at.
pub fn parse_header(blob: &[u8]) -> Result<SegHeader, FsError> {
    read_header(&mut Reader::new(blob))
}

/// Index a segment: the header, then one payload-free walk of the entry
/// area. This is the only decoder of that area; it trusts nothing — a
/// count or length the blob cannot hold, a short metadata prefix, a
/// nonzero reserved word or rows out of path order are
/// [`FsError::Corrupt`] — but it does not checksum:
/// callers verify the whole-segment CRC from the manifest first.
pub fn index(blob: &[u8]) -> Result<SegIndex, FsError> {
    let mut r = Reader::new(blob);
    let header = read_header(&mut r)?;
    let mut walk = || -> Result<Vec<SegRow>, Malformed> {
        let count = r.count(ENTRY_OVERHEAD + META_PREFIX)?;
        let mut rows: Vec<SegRow> = Vec::with_capacity(count);
        for _ in 0..count {
            let e = read_entry(&mut r)?;
            let mut data = Reader::new(e.data);
            let prefix = (data.u64(), data.u64(), data.u8());
            let (Ok(seq), Ok(reserved), Ok(flags)) = prefix else {
                return Err(r.fail("short entry metadata"));
            };
            if reserved != 0 {
                return Err(r.fail("nonzero reserved field"));
            }
            if rows.last().is_some_and(|prev| prev.path.as_str() >= e.path) {
                return Err(r.fail("entries out of path order"));
            }
            let stored_len = data.rest().len();
            rows.push(SegRow {
                path: e.path.to_string(),
                seq,
                tombstone: flags & FLAG_TOMBSTONE != 0,
                codec: e.codec,
                raw_len: usize::try_from(e.stat.size)
                    .map_err(|_| r.fail("raw length exceeds the address space"))?,
                offset: r.consumed() - stored_len,
                stored_len,
            });
        }
        Ok(rows)
    };
    let rows = walk().map_err(|e| e.corrupt("wal segment"))?;
    Ok(SegIndex { header, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A sorted entry list from pairs.
    fn sorted_entries(
        pairs: impl IntoIterator<Item = (String, MemEntry)>,
    ) -> Vec<(String, MemEntry)> {
        let mut v: Vec<(String, MemEntry)> = pairs.into_iter().collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn entry(seq: u64, value: Option<&[u8]>) -> MemEntry {
        MemEntry { seq, value: value.map(|v| Arc::new(v.to_vec())) }
    }

    fn lz() -> CodecId {
        CodecId::new(CodecFamily::Lz4Hc, 6)
    }

    fn noise() -> Vec<u8> {
        (0..256u32).flat_map(|i| i.wrapping_mul(0x9E37_79B9).to_le_bytes()).collect()
    }

    /// A row's stored bytes, as compaction carries them out of `blob`.
    fn stored<'a>(row: &'a SegRow, blob: &'a [u8]) -> Cow<'a, [u8]> {
        row.carry(blob).expect("the row indexes this blob").stored
    }

    /// A row's value decoded from its stored bytes, as a reader decodes it;
    /// the decoded length is held to `raw_len`.
    fn decode(row: &SegRow, stored: &[u8]) -> Vec<u8> {
        let mut value = Vec::new();
        crate::node::decompress_object_into(row.codec, stored, row.raw_len, &row.path, &mut value)
            .unwrap();
        value
    }

    #[test]
    fn roundtrip_values_and_tombstones() {
        let entries = sorted_entries([
            ("b/tomb".to_string(), entry(5, None)),
            ("a/data".to_string(), entry(3, Some(&b"compress me ".repeat(50)))),
        ]);
        let Built { blob, index: built } = build(&entries, lz(), 0.01).unwrap();
        assert_eq!(built.rows.iter().map(|r| r.raw_len).sum::<usize>(), 600);
        let h = parse_header(&blob).unwrap();
        assert_eq!((h.first_seq, h.last_seq), (3, 5));
        assert!(h.bloom.contains("a/data") && h.bloom.contains("b/tomb"));
        let rows = index(&blob).unwrap().rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].path, "a/data");
        assert!(!rows[0].tombstone);
        let data = stored(&rows[0], &blob);
        assert!(data.len() < 600, "repetitive value compresses");
        assert_eq!(decode(&rows[0], &data), b"compress me ".repeat(50));
        assert!(rows[1].tombstone);
        assert_eq!(rows[1].seq, 5);
    }

    #[test]
    fn incompressible_values_stored_raw() {
        let entries = sorted_entries([("n".to_string(), entry(1, Some(&noise())))]);
        let blob = build(&entries, lz(), 0.01).unwrap().blob;
        let rows = index(&blob).unwrap().rows;
        assert_eq!(rows[0].codec, CodecId::new(CodecFamily::Store, 0));
        assert_eq!(decode(&rows[0], &stored(&rows[0], &blob)), noise());
    }

    #[test]
    fn header_rejects_corruption() {
        let entries = sorted_entries([("k".to_string(), entry(1, Some(b"v")))]);
        let blob = build(&entries, lz(), 0.01).unwrap().blob;
        assert!(parse_header(&blob[..10]).is_err());
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(parse_header(&bad).is_err());
        let mut wrong_version = blob;
        wrong_version[4] = 9;
        assert!(parse_header(&wrong_version).is_err());
    }

    /// Compressed, stored-raw, empty and deleted versions.
    fn mixed() -> Vec<(String, MemEntry)> {
        sorted_entries([
            ("m/compressed".to_string(), entry(3, Some(&b"compress me ".repeat(50)))),
            ("m/raw".to_string(), entry(4, Some(&noise()))),
            ("m/empty".to_string(), entry(5, Some(b""))),
            ("m/unlinked".to_string(), entry(9, None)),
            ("m/tomb".to_string(), entry(11, None)),
        ])
    }

    #[test]
    fn the_builders_index_is_what_the_walker_reads_back() {
        let Built { blob, index: built } = build(&mixed(), lz(), 0.01).unwrap();
        assert_eq!(blob.capacity(), blob.len(), "sized once, exactly");
        assert_eq!(index(&blob).unwrap(), built);
        for (row, (path, e)) in built.rows.iter().zip(mixed()) {
            assert_eq!(row.path, path);
            assert_eq!((row.seq, row.tombstone), (e.seq, e.value.is_none()));
            let value = decode(row, &stored(row, &blob));
            assert_eq!(value, e.value.map_or(Vec::new(), |v| (*v).clone()), "{path}");
            assert_eq!(built.find(&path), Some(row));
        }
        assert_eq!(built.find("m/absent"), None);
    }

    #[test]
    fn carried_bytes_equal_a_rebuild_of_the_decoded_values() {
        // What compaction does: take the live rows' stored bytes out of a
        // segment as they are. What it used to do: decode every value and
        // build again. The two must agree byte for byte.
        let source = build(&mixed(), lz(), 0.01).unwrap();
        let rows = index(&source.blob).unwrap().rows;
        let live: Vec<&SegRow> = rows.iter().filter(|r| !r.tombstone).collect();
        let carried: Vec<Part<'_>> = live.iter().map(|r| r.carry(&source.blob).unwrap()).collect();
        let decoded: Vec<(String, MemEntry)> = live
            .iter()
            .zip(&carried)
            .map(|(r, p)| {
                let value = Some(Arc::new(decode(r, &p.stored)));
                (r.path.clone(), MemEntry { seq: r.seq, value })
            })
            .collect();
        assert_eq!(carried.len(), 3);
        let rebuilt = build(&decoded, lz(), 0.01).unwrap();
        let carried = assemble(&carried, 0.01);
        assert_eq!(carried.blob, rebuilt.blob);
        assert_eq!(carried.index, rebuilt.index);
    }

    #[test]
    fn the_walker_rejects_rows_it_could_not_search() {
        let entries =
            vec![("b".to_string(), entry(1, Some(b"v"))), ("a".to_string(), entry(2, Some(b"w")))];
        let blob = build(&entries, lz(), 0.01).unwrap().blob;
        assert!(matches!(index(&blob), Err(FsError::Corrupt(m)) if m.contains("path order")));
        // An entry whose data field is shorter than the metadata prefix
        // (the entry behind it keeps the count plausible).
        let good = build(&[entries[1].clone(), entries[0].clone()], lz(), 0.01).unwrap();
        let value_at = good.index.rows[0].offset;
        let size_at = value_at - META_PREFIX - 8;
        let mut short = good.blob.clone();
        short[size_at..size_at + 8].copy_from_slice(&(META_PREFIX as u64 - 1).to_le_bytes());
        short.drain(value_at - 1..value_at + 1);
        assert!(matches!(index(&short), Err(FsError::Corrupt(m)) if m.contains("metadata")));
        // A nonzero reserved word in an entry's metadata prefix.
        let mut reserved = good.blob;
        reserved[value_at - META_PREFIX + 8] = 1;
        assert!(matches!(index(&reserved), Err(FsError::Corrupt(m)) if m.contains("reserved")));
    }
}
