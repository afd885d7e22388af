//! The compressed data representation (paper §IV-B, Table I).
//!
//! A partition is a flat byte stream:
//!
//! ```text
//! | num_files: u32 |
//! | path: 256 B | compressor: u16 | stat: 144 B | size: u64 | data: size B |  (x num_files)
//! ```
//!
//! Paths are NUL-padded to exactly 256 bytes; `compressor` is a
//! [`CodecId`]; `size` is the *compressed* byte count; `stat.size` holds
//! the original file size the decoder needs.

use fanstore_compress::crc32::crc32;
use fanstore_compress::{progressive, CodecId};

use crate::framing::{seal_trailing, Malformed, Reader};
use crate::stat::{FileStat, STAT_SIZE};
use crate::FsError;

/// Fixed width of the path field.
pub const PATH_SIZE: usize = 256;
/// Per-entry fixed overhead: path + compressor + stat + size.
pub const ENTRY_OVERHEAD: usize = PATH_SIZE + 2 + STAT_SIZE + 8;

/// Refuse a path the path field cannot hold as it is: one of
/// [`PATH_SIZE`] bytes or more (the field must keep a NUL), or one with a
/// NUL byte, where the field would end it when read back.
pub(crate) fn check_path(path: &str) -> Result<(), FsError> {
    if path.len() >= PATH_SIZE {
        let limit = PATH_SIZE - 1;
        return Err(FsError::BadPath(format!("{} bytes, limit {limit}: {path}", path.len())));
    }
    if path.contains('\0') {
        return Err(FsError::BadPath(format!("NUL byte in {path:?}")));
    }
    Ok(())
}

/// One packed file entry (borrowing the data from the partition buffer
/// when parsing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackEntry {
    /// File path relative to the FanStore mount point.
    pub path: String,
    /// Codec the data was compressed with.
    pub codec: CodecId,
    /// File attributes; `stat.size` is the uncompressed length.
    pub stat: FileStat,
    /// Compressed payload.
    pub data: Vec<u8>,
}

/// Incrementally build a partition in the Table I layout.
pub struct PartitionBuilder {
    buf: Vec<u8>,
    /// Where the partition starts in `buf` (the count field).
    start: usize,
    count: u32,
}

impl PartitionBuilder {
    /// Start an empty partition.
    pub fn new() -> Self {
        Self::after(Vec::new())
    }

    /// Start an empty partition behind what `buf` already holds (a WAL
    /// segment's header), so the two are laid down in one allocation the
    /// caller has sized.
    pub fn after(mut buf: Vec<u8>) -> Self {
        let start = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes());
        PartitionBuilder { buf, start, count: 0 }
    }

    /// Append one compressed file.
    ///
    /// # Panics
    /// If `path` exceeds 255 bytes (the fixed field must keep a NUL).
    pub fn push(&mut self, path: &str, codec: CodecId, stat: &FileStat, data: &[u8]) {
        self.push_split(path, codec, stat, data, &[]);
    }

    /// [`PartitionBuilder::push`] with the data field given as two pieces
    /// written back to back (a fixed prefix, then stored bytes borrowed
    /// from elsewhere), so the caller does not join them first.
    pub fn push_split(
        &mut self,
        path: &str,
        codec: CodecId,
        stat: &FileStat,
        head: &[u8],
        tail: &[u8],
    ) {
        assert!(path.len() < PATH_SIZE, "path too long for pack format: {path}");
        let mut path_field = [0u8; PATH_SIZE];
        path_field[..path.len()].copy_from_slice(path.as_bytes());
        self.buf.extend_from_slice(&path_field);
        self.buf.extend_from_slice(&codec.0.to_le_bytes());
        stat.encode(&mut self.buf);
        self.buf.extend_from_slice(&((head.len() + tail.len()) as u64).to_le_bytes());
        self.buf.extend_from_slice(head);
        self.buf.extend_from_slice(tail);
        self.count += 1;
    }

    /// Number of files added so far.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// True if no files were added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Current partition size in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Finish: patch the header count and return the buffer (the
    /// partition bytes, behind whatever [`PartitionBuilder::after`] was
    /// given).
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[self.start..self.start + 4].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

impl Default for PartitionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// One entry read in place: the fields of [`PackEntry`], borrowing the
/// path and data from the partition buffer.
pub(crate) struct EntryRef<'a> {
    pub(crate) path: &'a str,
    pub(crate) codec: CodecId,
    pub(crate) stat: FileStat,
    pub(crate) data: &'a [u8],
}

/// Read the entry at the cursor. The one reader of the Table I entry
/// layout: [`parse_partition`] copies what it returns, the WAL segment
/// index records where `data` lies instead.
pub(crate) fn read_entry<'a>(r: &mut Reader<'a>) -> Result<EntryRef<'a>, Malformed> {
    let path_field = r.bytes(PATH_SIZE)?;
    let path_end = path_field.iter().position(|&b| b == 0).unwrap_or(PATH_SIZE);
    let path =
        std::str::from_utf8(&path_field[..path_end]).map_err(|_| r.fail("path is not utf-8"))?;
    let codec = CodecId(r.u16()?);
    let stat = FileStat::read(r)?;
    let data = r.bytes64()?;
    Ok(EntryRef { path, codec, stat, data })
}

/// Parse a partition produced by [`PartitionBuilder`]. The whole stream is
/// scanned once, as the loading step of §IV-C1 does. The bytes come off a
/// burst buffer, a peer or a WAL segment: a count or `size` the buffer
/// cannot hold is [`FsError::Corrupt`], never a panic or a pre-allocation
/// beyond the input's own scale.
pub fn parse_partition(buf: &[u8]) -> Result<Vec<PackEntry>, FsError> {
    let parse = || -> Result<Vec<PackEntry>, Malformed> {
        let mut r = Reader::new(buf);
        let count = r.count(ENTRY_OVERHEAD)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let e = read_entry(&mut r)?;
            entries.push(PackEntry {
                path: e.path.to_string(),
                codec: e.codec,
                stat: e.stat,
                data: e.data.to_vec(),
            });
        }
        Ok(entries)
    };
    parse().map_err(|e| e.corrupt("partition"))
}

// ---------------------------------------------------------------------------
// Chunked / progressive container (the "FCHK" format)
// ---------------------------------------------------------------------------
//
// A pack entry's payload is normally one opaque compressed blob; range
// reads then have to fetch and decode the whole file. Entries whose
// `compressor` field is the [`CHUNKED`] sentinel instead carry a header, a
// CRC-tailed chunk table and the chunk payloads (fields: DESIGN.md §16
// "Byte layouts", row 3; design: §13). `kind` 0 chunks cover disjoint byte
// ranges; `kind` 1 chunks are fidelity tiers, a prefix of which decodes to
// an approximation. Each row's `crc32` covers that chunk's *stored* bytes,
// so one corrupted chunk is detectable without touching its neighbours.

/// Sentinel `compressor` value marking an FCHK container payload. The
/// family byte (0x10) is outside the codec-family range, so any
/// non-container-aware path that tries to decode it through the registry
/// fails loudly with `UnknownCodec` instead of mis-decoding.
pub const CHUNKED: CodecId = CodecId(0x1000);

/// `min_tier` value requesting full fidelity (every tier).
pub const TIER_FULL: u8 = 255;

const CHUNK_MAGIC: [u8; 4] = *b"FCHK";
const CHUNK_VERSION: u8 = 1;
/// Serialized size of one chunk-table row.
pub const CHUNK_ROW: usize = 8 + 4 + 4 + 4 + 1;
/// Serialized size of the fixed container header (before the rows).
pub const CHUNK_HEADER: usize = 4 + 1 + 1 + 2 + 4 + 8 + 4;

/// What the chunks of a container mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Chunks cover disjoint byte ranges of the raw file.
    Range,
    /// Chunks are progressive fidelity tiers of the whole file.
    Progressive,
}

/// One row of the chunk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// First raw byte this chunk covers (0 for progressive tiers).
    pub offset: u64,
    /// Raw bytes this chunk decodes to (tier payload length for
    /// progressive chunks, which manage their own framing).
    pub raw_len: u32,
    /// Stored bytes in the container; for range chunks,
    /// `stored_len == raw_len` means the chunk is stored raw.
    pub stored_len: u32,
    /// CRC-32 of the stored bytes.
    pub crc32: u32,
    /// Fidelity tier (0 = base; always 0 for range chunks).
    pub tier: u8,
}

/// Parsed chunk table of an FCHK container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTable {
    /// Container flavour.
    pub kind: ChunkKind,
    /// Codec range-chunk payloads are compressed with.
    pub inner_codec: CodecId,
    /// Nominal chunk size for range containers (0 for progressive).
    pub chunk_size: u32,
    /// Total raw file length.
    pub raw_len: u64,
    /// Per-chunk rows, in payload order.
    pub chunks: Vec<ChunkMeta>,
}

impl ChunkTable {
    /// Byte offset of chunk `idx`'s stored payload *within the container*
    /// (header + table + preceding payloads).
    pub fn payload_offset(&self, idx: usize) -> usize {
        let table_end = CHUNK_HEADER + self.chunks.len() * CHUNK_ROW + 4;
        table_end + self.chunks[..idx].iter().map(|c| c.stored_len as usize).sum::<usize>()
    }

    /// Indices of the range chunks covering raw bytes `[start, end)`, a
    /// window inside the file. The table tiles the file
    /// ([`parse_chunk_table`]), so chunk *i* starts at `i × chunk_size` and
    /// the run is arithmetic.
    pub fn covering(&self, start: u64, end: u64) -> Vec<usize> {
        let size = u64::from(self.chunk_size.max(1));
        let last = end.div_ceil(size).min(self.chunks.len() as u64);
        (start / size..last).map(|i| i as usize).collect()
    }

    /// Indices of the progressive tiers with `tier <= min_tier`, i.e. the
    /// decodable prefix a fidelity-bounded read should fetch.
    pub fn tiers_up_to(&self, min_tier: u8) -> Vec<usize> {
        self.chunks.iter().enumerate().filter(|(_, c)| c.tier <= min_tier).map(|(i, _)| i).collect()
    }
}

fn encode_container(table: &ChunkTable, payloads: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = payloads.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(CHUNK_HEADER + table.chunks.len() * CHUNK_ROW + 4 + body);
    out.extend_from_slice(&CHUNK_MAGIC);
    out.push(CHUNK_VERSION);
    out.push(match table.kind {
        ChunkKind::Range => 0,
        ChunkKind::Progressive => 1,
    });
    out.extend_from_slice(&table.inner_codec.0.to_le_bytes());
    out.extend_from_slice(&table.chunk_size.to_le_bytes());
    out.extend_from_slice(&table.raw_len.to_le_bytes());
    out.extend_from_slice(&(table.chunks.len() as u32).to_le_bytes());
    for c in &table.chunks {
        out.extend_from_slice(&c.offset.to_le_bytes());
        out.extend_from_slice(&c.raw_len.to_le_bytes());
        out.extend_from_slice(&c.stored_len.to_le_bytes());
        out.extend_from_slice(&c.crc32.to_le_bytes());
        out.push(c.tier);
    }
    seal_trailing(&mut out);
    for p in payloads {
        out.extend_from_slice(p);
    }
    out
}

/// Build a range-chunked container: split `data` into `chunk_size` slices
/// and compress each with `inner` (storing a chunk raw when compression
/// does not shrink it, mirroring the pack-level store fallback).
pub fn build_chunked(data: &[u8], chunk_size: usize, inner: CodecId) -> Vec<u8> {
    let chunk_size = chunk_size.max(1);
    let codec = fanstore_compress::registry::create(inner).expect("valid inner codec id");
    let mut chunks = Vec::new();
    let mut payloads = Vec::new();
    for (i, raw) in data.chunks(chunk_size).enumerate() {
        let mut packed = Vec::with_capacity(raw.len() / 2 + 64);
        codec.compress(raw, &mut packed);
        let stored = if packed.len() < raw.len() { packed } else { raw.to_vec() };
        chunks.push(ChunkMeta {
            offset: (i * chunk_size) as u64,
            raw_len: raw.len() as u32,
            stored_len: stored.len() as u32,
            crc32: crc32(&stored),
            tier: 0,
        });
        payloads.push(stored);
    }
    let table = ChunkTable {
        kind: ChunkKind::Range,
        inner_codec: inner,
        chunk_size: chunk_size as u32,
        raw_len: data.len() as u64,
        chunks,
    };
    encode_container(&table, &payloads)
}

/// Build a progressive container: `tiers` fidelity tiers (clamped to
/// 1..=32) from [`fanstore_compress::progressive::encode_tiers`].
pub fn build_progressive(data: &[u8], tiers: u8) -> Vec<u8> {
    let payloads = progressive::encode_tiers(data, tiers);
    let chunks = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| ChunkMeta {
            offset: 0,
            raw_len: p.len() as u32,
            stored_len: p.len() as u32,
            crc32: crc32(p),
            tier: i as u8,
        })
        .collect();
    let table = ChunkTable {
        kind: ChunkKind::Progressive,
        inner_codec: CodecId(0),
        chunk_size: 0,
        raw_len: data.len() as u64,
        chunks,
    };
    encode_container(&table, &payloads)
}

/// The one FCHK geometry rule: whether `row` is row `idx` of a `kind`
/// table over a file of `len` raw bytes in `chunk_size` chunks. A range
/// row is tier 0 and covers `[idx × chunk_size, +min(chunk_size, rest))`
/// of the file, so `ceil(len / chunk_size)` rows that pass tile
/// `[0, len)`; a progressive row is tier `idx` of the whole file, at
/// offset 0, stored as it is (its `raw_len` is its `stored_len`).
/// [`parse_chunk_table`] holds every stored row to it, and
/// `PartialReply::check_extent` every chunk a peer sends.
pub(crate) fn row_fits(
    kind: ChunkKind,
    chunk_size: u32,
    len: u64,
    idx: usize,
    row: &ChunkMeta,
) -> bool {
    match kind {
        ChunkKind::Range => (idx as u64).checked_mul(u64::from(chunk_size)).is_some_and(|at| {
            let rest = len.saturating_sub(at);
            row.tier == 0
                && row.offset == at
                && rest > 0
                && u64::from(row.raw_len) == rest.min(u64::from(chunk_size))
        }),
        ChunkKind::Progressive => {
            row.offset == 0 && usize::from(row.tier) == idx && row.raw_len == row.stored_len
        }
    }
}

/// Parse an FCHK container's header and chunk table (payloads stay in
/// place; use [`ChunkTable::payload_offset`] to slice them). Nothing is
/// returned unless the table CRC holds, every payload the rows name lies
/// inside `data` and the rows obey `row_fits`: a range table has
/// `ceil(raw_len / chunk_size)` rows (`chunk_size > 0` if it has any) and
/// tiles `[0, raw_len)`, a progressive one holds tier *i* at row *i*.
/// Anyone can compute the table CRC, so this is the proof every consumer
/// of a [`ChunkTable`] relies on.
pub fn parse_chunk_table(data: &[u8]) -> Result<ChunkTable, FsError> {
    let parse = || -> Result<ChunkTable, Malformed> {
        let mut r = Reader::new(data);
        r.tag(&CHUNK_MAGIC, "not an FCHK container")?;
        r.tag(&[CHUNK_VERSION], "unknown FCHK version")?;
        let kind = match r.u8()? {
            0 => ChunkKind::Range,
            1 => ChunkKind::Progressive,
            _ => return Err(r.fail("unknown FCHK kind")),
        };
        let inner_codec = CodecId(r.u16()?);
        let chunk_size = r.u32()?;
        let raw_len = r.u64()?;
        let count = r.count(CHUNK_ROW)?;
        let mut chunks = Vec::with_capacity(count);
        let mut payload_bytes = 0usize;
        for _ in 0..count {
            let row = ChunkMeta {
                offset: r.u64()?,
                raw_len: r.u32()?,
                stored_len: r.u32()?,
                crc32: r.u32()?,
                tier: r.u8()?,
            };
            payload_bytes = payload_bytes.saturating_add(row.stored_len as usize);
            chunks.push(row);
        }
        r.trailing_crc()?;
        let rows = raw_len.div_ceil(u64::from(chunk_size.max(1)));
        let counted = kind == ChunkKind::Progressive
            || (count as u64 == rows && (chunk_size > 0 || count == 0));
        let fits = |(i, c)| row_fits(kind, chunk_size, raw_len, i, c);
        if !counted || !chunks.iter().enumerate().all(fits) {
            return Err(r.fail("chunk rows do not tile the file"));
        }
        r.bytes(payload_bytes)?;
        Ok(ChunkTable { kind, inner_codec, chunk_size, raw_len, chunks })
    };
    parse().map_err(|e| e.corrupt("FCHK container"))
}

/// Slice chunk `idx`'s stored payload out of the container, unverified
/// (the daemon ships it with its at-rest CRC for the requester to check).
pub(crate) fn chunk_stored<'a>(
    data: &'a [u8],
    table: &ChunkTable,
    idx: usize,
) -> Result<&'a [u8], FsError> {
    let mut r = Reader::new(data);
    r.bytes(table.payload_offset(idx))
        .and_then(|_| r.bytes(table.chunks[idx].stored_len as usize))
        .map_err(|e| e.corrupt(&format!("chunk {idx} payload")))
}

/// Slice chunk `idx`'s stored payload out of the container and verify its
/// CRC.
pub fn chunk_payload<'a>(
    data: &'a [u8],
    table: &ChunkTable,
    idx: usize,
) -> Result<&'a [u8], FsError> {
    verified(idx, &table.chunks[idx], chunk_stored(data, table, idx)?)
}

/// `stored` as chunk `idx`'s payload, once it matches the row's CRC.
fn verified<'a>(idx: usize, row: &ChunkMeta, stored: &'a [u8]) -> Result<&'a [u8], FsError> {
    let mismatch = || FsError::Corrupt(format!("chunk {idx} checksum mismatch"));
    (crc32(stored) == row.crc32).then_some(stored).ok_or_else(mismatch)
}

/// Decode one *range* chunk's stored payload to its raw bytes.
pub fn decode_chunk(table: &ChunkTable, idx: usize, payload: &[u8]) -> Result<Vec<u8>, FsError> {
    let (raw_len, mut out) = (table.chunks[idx].raw_len, Vec::new());
    decode_stored(table.inner_codec, idx, payload, raw_len, raw_len, &mut out).map(|()| out)
}

/// Append the first `want` raw bytes (at most `raw_len`) of range chunk
/// `idx`'s stored bytes to `out`: raw when they are already `raw_len`
/// long (the store-if-bigger fallback), else `inner`-compressed.
/// `raw_len` sizes the reservation, so it comes from a proven
/// [`ChunkTable`] row or a PARTIAL chunk that passed
/// `PartialReply::check_extent`.
pub(crate) fn decode_stored(
    inner: CodecId,
    idx: usize,
    stored: &[u8],
    raw_len: u32,
    want: u32,
    out: &mut Vec<u8>,
) -> Result<(), FsError> {
    let codec = if stored.len() == raw_len as usize {
        CodecId::new(fanstore_compress::CodecFamily::Store, 0)
    } else {
        inner
    };
    let corrupt = |e: fanstore_compress::CodecError| FsError::Corrupt(format!("chunk {idx}: {e}"));
    let codec = fanstore_compress::registry::create(codec).map_err(corrupt)?;
    let (raw_len, want) = (raw_len as usize, want as usize);
    fanstore_compress::decompress_prefix_into(codec.as_ref(), stored, raw_len, want, out)
        .map_err(corrupt)
}

/// Append the approximation a prefix of verified progressive tiers gives
/// of a file of `raw_len` bytes to `out` (every tier: bit-exact).
pub fn decode_tiers<'a>(
    tiers: impl Iterator<Item = Result<&'a [u8], FsError>>,
    raw_len: u64,
    out: &mut Vec<u8>,
) -> Result<(), FsError> {
    let tiers: Vec<&[u8]> = tiers.collect::<Result<_, _>>()?;
    progressive::decode_prefix(&tiers, raw_len as usize, out)
        .map_err(|e| FsError::Corrupt(format!("progressive decode: {e}")))
}

/// The one whole-container decode, behind
/// [`crate::node::decompress_object_into`]: an FCHK container of a file of
/// `expected_len` raw bytes into `out`, which is cleared first. A range
/// container decodes to its bytes, each chunk CRC-checked and appended
/// behind the one before (the table tiles the file, so nothing is placed
/// or zero-filled); a progressive one to the approximation its tiers up
/// to `min_tier` give ([`TIER_FULL`]: every tier, bit-exact). A table
/// whose `raw_len` is not `expected_len` is [`FsError::Corrupt`] before
/// anything is reserved.
pub fn decode_container(
    data: &[u8],
    expected_len: usize,
    min_tier: u8,
    out: &mut Vec<u8>,
) -> Result<(), FsError> {
    let table = parse_chunk_table(data)?;
    if table.raw_len != expected_len as u64 {
        let raw_len = table.raw_len;
        return Err(FsError::Corrupt(format!("FCHK raw_len {raw_len} of a {expected_len} B file")));
    }
    out.clear();
    // The parse proved the payloads lie back to back inside `data`.
    let mut at = table.payload_offset(0);
    let payloads = table.chunks.iter().enumerate().map(|(idx, row)| {
        let stored = &data[at..at + row.stored_len as usize];
        at += stored.len();
        verified(idx, row, stored)
    });
    if table.kind == ChunkKind::Progressive {
        let tiers = payloads.take(table.tiers_up_to(min_tier).len());
        return decode_tiers(tiers, table.raw_len, out);
    }
    out.reserve(expected_len.saturating_add(fanstore_compress::copy::WILD_SLACK));
    for ((idx, c), stored) in table.chunks.iter().enumerate().zip(payloads) {
        decode_stored(table.inner_codec, idx, stored?, c.raw_len, c.raw_len, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore_compress::CodecFamily;

    fn codec() -> CodecId {
        CodecId::new(CodecFamily::Lz4Hc, 9)
    }

    #[test]
    fn empty_partition_roundtrip() {
        let p = PartitionBuilder::new().finish();
        assert_eq!(p.len(), 4);
        assert!(parse_partition(&p).unwrap().is_empty());
    }

    #[test]
    fn multi_entry_roundtrip() {
        let mut b = PartitionBuilder::new();
        let s1 = FileStat::regular(1, 100);
        let s2 = FileStat::regular(2, 5);
        b.push("dir/a.bin", codec(), &s1, &[9u8; 37]);
        b.push("dir/sub/b.bin", codec(), &s2, &[]);
        assert_eq!(b.len(), 2);
        let bytes = b.finish();
        let entries = parse_partition(&bytes).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].path, "dir/a.bin");
        assert_eq!(entries[0].data, vec![9u8; 37]);
        assert_eq!(entries[0].stat, s1);
        assert_eq!(entries[1].path, "dir/sub/b.bin");
        assert!(entries[1].data.is_empty());
    }

    #[test]
    fn layout_matches_table1_widths() {
        let mut b = PartitionBuilder::new();
        b.push("x", codec(), &FileStat::regular(1, 3), b"abc");
        let bytes = b.finish();
        // 4 (count) + 256 (path) + 2 (compressor) + 144 (stat) + 8 (size) + 3 (data)
        assert_eq!(bytes.len(), 4 + 256 + 2 + 144 + 8 + 3);
        // Path field is NUL-padded.
        assert_eq!(bytes[4], b'x');
        assert!(bytes[5..4 + 256].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "path too long")]
    fn overlong_path_panics() {
        let mut b = PartitionBuilder::new();
        let long = "p".repeat(256);
        b.push(&long, codec(), &FileStat::regular(1, 0), &[]);
    }

    #[test]
    fn truncated_partition_rejected() {
        let mut b = PartitionBuilder::new();
        b.push("f", codec(), &FileStat::regular(1, 10), &[0u8; 10]);
        let bytes = b.finish();
        for cut in [2usize, 100, bytes.len() - 1] {
            assert!(parse_partition(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn count_mismatch_rejected() {
        let mut b = PartitionBuilder::new();
        b.push("f", codec(), &FileStat::regular(1, 4), &[1, 2, 3, 4]);
        let mut bytes = b.finish();
        bytes[..4].copy_from_slice(&5u32.to_le_bytes()); // claim 5 entries
        assert!(parse_partition(&bytes).is_err());
    }

    #[test]
    fn max_length_path_ok() {
        let mut b = PartitionBuilder::new();
        let path = "p".repeat(255);
        b.push(&path, codec(), &FileStat::regular(1, 0), &[]);
        let entries = parse_partition(&b.finish()).unwrap();
        assert_eq!(entries[0].path, path);
    }

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    /// What the one whole-container decode gives for a file of `len`
    /// bytes at `min_tier`.
    fn decode(packed: &[u8], len: usize, min_tier: u8) -> Result<Vec<u8>, FsError> {
        let mut out = Vec::new();
        decode_container(packed, len, min_tier, &mut out).map(|()| out)
    }

    /// `packed` with its table rewritten by `lie`, re-encoded over the same
    /// payloads: a container whose every CRC holds.
    fn relaid(packed: &[u8], lie: impl FnOnce(&mut ChunkTable)) -> Vec<u8> {
        let mut table = parse_chunk_table(packed).expect("a built container parses");
        let payloads: Vec<Vec<u8>> = (0..table.chunks.len())
            .map(|i| chunk_stored(packed, &table, i).expect("in bounds").to_vec())
            .collect();
        lie(&mut table);
        encode_container(&table, &payloads)
    }

    #[test]
    fn chunked_sentinel_is_not_a_registry_codec() {
        assert!(CHUNKED.family().is_none());
        assert!(fanstore_compress::registry::create(CHUNKED).is_err());
    }

    #[test]
    fn chunked_container_roundtrip() {
        for (len, chunk) in [(0usize, 64usize), (1, 64), (64, 64), (65, 64), (10_000, 777)] {
            let data = sample(len);
            let packed = build_chunked(&data, chunk, codec());
            assert!(packed.starts_with(&CHUNK_MAGIC));
            assert_eq!(decode(&packed, len, TIER_FULL).unwrap(), data, "len={len} chunk={chunk}");
        }
    }

    #[test]
    fn every_inner_codec_decodes_chunk_after_chunk_into_one_buffer() {
        let data = sample(1000);
        for family in CodecFamily::ALL {
            let valid = |&id: &CodecId| fanstore_compress::registry::create(id).is_ok();
            let inner = (0..=9).map(|level| CodecId::new(family, level)).find(valid).unwrap();
            let packed = build_chunked(&data, 96, inner);
            assert_eq!(decode(&packed, data.len(), TIER_FULL).unwrap(), data, "{inner}");
        }
    }

    #[test]
    fn a_table_that_does_not_tile_its_file_is_corrupt_at_parse() {
        let vals: Vec<u8> = (0..64u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let rows: [(&str, Vec<u8>); 8] = [
            (
                "chunk 1 of two at 100, not 150",
                relaid(&build_chunked(&sample(300), 150, codec()), |t| {
                    t.chunks[1].offset = 100;
                }),
            ),
            (
                "a gap: chunk 1 of three at 110",
                relaid(&build_chunked(&sample(300), 100, codec()), |t| {
                    t.chunks[1].offset = 110;
                }),
            ),
            (
                "a row count one short",
                relaid(&build_chunked(&sample(300), 100, codec()), |t| {
                    t.chunks.pop();
                }),
            ),
            (
                "chunk_size 0 with rows",
                relaid(&build_chunked(&sample(300), 100, codec()), |t| {
                    t.chunk_size = 0;
                }),
            ),
            (
                "a last row longer than the rest",
                relaid(&build_chunked(&sample(300), 128, codec()), |t| {
                    t.chunks[2].raw_len = 128;
                }),
            ),
            (
                "progressive tiers out of order",
                relaid(&build_progressive(&vals, 3), |t| {
                    (t.chunks[0].tier, t.chunks[1].tier) = (1, 0);
                }),
            ),
            (
                "a progressive tier off offset 0",
                relaid(&build_progressive(&vals, 3), |t| {
                    t.chunks[1].offset = 4;
                }),
            ),
            (
                "a progressive tier longer than it is stored",
                relaid(&build_progressive(&vals, 3), |t| {
                    t.chunks[2].raw_len += 1;
                }),
            ),
        ];
        for (row, packed) in rows {
            assert!(matches!(parse_chunk_table(&packed), Err(FsError::Corrupt(_))), "{row}");
        }
    }

    #[test]
    fn covering_chunks_are_minimal() {
        let data = sample(1000);
        let packed = build_chunked(&data, 100, codec());
        let table = parse_chunk_table(&packed).unwrap();
        assert_eq!(table.chunks.len(), 10);
        assert_eq!(table.covering(0, 1), vec![0]);
        assert_eq!(table.covering(250, 251), vec![2]);
        assert_eq!(table.covering(250, 450), vec![2, 3, 4]);
        assert_eq!(table.covering(999, 1000), vec![9]);
        assert!(table.covering(1000, 1001).is_empty());
    }

    #[test]
    fn crafted_chunk_offset_is_corrupt_not_overflow() {
        // A row that passes the table CRC but claims offset u64::MAX - 1:
        // its extent overflows u64. The parse must say Corrupt, not panic
        // (debug) or wrap into a bogus match (release).
        let mut packed = build_chunked(&sample(1000), 100, codec());
        let row1 = CHUNK_HEADER + CHUNK_ROW; // the offset field leads the row
        packed[row1..row1 + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        let table_end = CHUNK_HEADER + 10 * CHUNK_ROW;
        let crc = crc32(&packed[..table_end]);
        packed[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(parse_chunk_table(&packed), Err(FsError::Corrupt(_))));
        assert!(matches!(decode(&packed, 1000, TIER_FULL), Err(FsError::Corrupt(_))));
    }

    #[test]
    fn progressive_container_roundtrip_and_prefix() {
        let vals: Vec<u8> =
            (0..800u32).flat_map(|i| ((i as f32) * 0.25).sin().to_le_bytes()).collect();
        let packed = build_progressive(&vals, 4);
        let table = parse_chunk_table(&packed).unwrap();
        assert_eq!(table.kind, ChunkKind::Progressive);
        assert_eq!(table.chunks.len(), 4);
        assert_eq!(decode(&packed, vals.len(), TIER_FULL).unwrap(), vals);
        let coarse = decode(&packed, vals.len(), 0).unwrap();
        assert_eq!(coarse.len(), vals.len());
        let err0 = fanstore_compress::progressive::max_abs_error(&vals, &coarse);
        let err_full = fanstore_compress::progressive::max_abs_error(
            &vals,
            &decode(&packed, vals.len(), TIER_FULL).unwrap(),
        );
        assert!(err_full <= err0);
        assert_eq!(err_full, 0.0);
    }

    #[test]
    fn corrupt_chunk_detected_by_crc() {
        let data = sample(1000);
        let mut packed = build_chunked(&data, 100, codec());
        let table = parse_chunk_table(&packed).unwrap();
        let at = table.payload_offset(3);
        packed[at] ^= 0xff;
        assert!(chunk_payload(&packed, &table, 3).is_err());
        // Neighbouring chunks are untouched.
        assert!(chunk_payload(&packed, &table, 2).is_ok());
        assert!(chunk_payload(&packed, &table, 4).is_ok());
        assert!(decode(&packed, data.len(), TIER_FULL).is_err());
    }

    #[test]
    fn corrupt_table_detected_by_crc() {
        let data = sample(500);
        let mut packed = build_chunked(&data, 100, codec());
        packed[CHUNK_HEADER + 2] ^= 1; // flip a bit inside a table row
        assert!(parse_chunk_table(&packed).is_err());
        packed[CHUNK_HEADER + 2] ^= 1;
        assert!(parse_chunk_table(&packed).is_ok());
        for cut in [3usize, CHUNK_HEADER, CHUNK_HEADER + 10, packed.len() - 1] {
            assert!(parse_chunk_table(&packed[..cut]).is_err(), "cut={cut}");
        }
    }
}
