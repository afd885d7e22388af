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

use crate::stat::{FileStat, STAT_SIZE};
use crate::FsError;

/// Fixed width of the path field.
pub const PATH_SIZE: usize = 256;
/// Per-entry fixed overhead: path + compressor + stat + size.
pub const ENTRY_OVERHEAD: usize = PATH_SIZE + 2 + STAT_SIZE + 8;

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
    count: u32,
}

impl PartitionBuilder {
    /// Start an empty partition.
    pub fn new() -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        PartitionBuilder { buf, count: 0 }
    }

    /// Append one compressed file.
    ///
    /// # Panics
    /// If `path` exceeds 255 bytes (the fixed field must keep a NUL).
    pub fn push(&mut self, path: &str, codec: CodecId, stat: &FileStat, data: &[u8]) {
        assert!(path.len() < PATH_SIZE, "path too long for pack format: {path}");
        let mut path_field = [0u8; PATH_SIZE];
        path_field[..path.len()].copy_from_slice(path.as_bytes());
        self.buf.extend_from_slice(&path_field);
        self.buf.extend_from_slice(&codec.0.to_le_bytes());
        stat.encode(&mut self.buf);
        self.buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(data);
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
        self.buf.len()
    }

    /// Finish: patch the header count and return the partition bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[..4].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

impl Default for PartitionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Parse a partition produced by [`PartitionBuilder`]. The whole stream is
/// scanned once, as the loading step of §IV-C1 does.
pub fn parse_partition(buf: &[u8]) -> Result<Vec<PackEntry>, FsError> {
    if buf.len() < 4 {
        return Err(FsError::Corrupt("partition header truncated".into()));
    }
    let count = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    // The count is untrusted wire data: cap the pre-allocation by what the
    // buffer could possibly hold (each entry needs ENTRY_OVERHEAD bytes).
    let max_plausible = buf.len() / ENTRY_OVERHEAD + 1;
    let mut entries = Vec::with_capacity(count.min(max_plausible));
    let mut pos = 4usize;
    for i in 0..count {
        if pos + ENTRY_OVERHEAD > buf.len() {
            return Err(FsError::Corrupt(format!("entry {i} header truncated")));
        }
        let path_field = &buf[pos..pos + PATH_SIZE];
        let path_end = path_field.iter().position(|&b| b == 0).unwrap_or(PATH_SIZE);
        let path = std::str::from_utf8(&path_field[..path_end])
            .map_err(|_| FsError::Corrupt(format!("entry {i} path not utf-8")))?
            .to_string();
        pos += PATH_SIZE;
        let codec = CodecId(u16::from_le_bytes(buf[pos..pos + 2].try_into().expect("2 bytes")));
        pos += 2;
        let stat = FileStat::decode(&buf[pos..pos + STAT_SIZE])?;
        pos += STAT_SIZE;
        let size = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8 bytes")) as usize;
        pos += 8;
        if pos + size > buf.len() {
            return Err(FsError::Corrupt(format!("entry {i} data truncated")));
        }
        let data = buf[pos..pos + size].to_vec();
        pos += size;
        entries.push(PackEntry { path, codec, stat, data });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Chunked / progressive container (the "FCHK" format)
// ---------------------------------------------------------------------------
//
// A pack entry's payload is normally one opaque compressed blob; range
// reads then have to fetch and decode the whole file. Entries whose
// `compressor` field is the [`CHUNKED`] sentinel instead carry this
// container:
//
// ```text
// | "FCHK" | version u8 | kind u8 | inner_codec u16 | chunk_size u32 |
// | raw_len u64 | count u32 |
// | offset u64 | raw_len u32 | stored_len u32 | crc32 u32 | tier u8 |  (x count)
// | table_crc u32 |
// | payload 0 | payload 1 | ...
// ```
//
// * `kind` 0 (range): chunk `i` covers raw bytes `[offset, offset+raw_len)`;
//   `stored_len == raw_len` means the chunk is stored raw, otherwise it is
//   compressed with `inner_codec`. A reader fetches only the chunks
//   covering a byte range.
// * `kind` 1 (progressive): chunk `i` is fidelity tier `i` from
//   [`fanstore_compress::progressive`]; `tier` is the refinement index and
//   a prefix of chunks decodes to a coarse approximation of the file.
//
// Each chunk's `crc32` covers its *stored* bytes, so a single corrupted
// chunk is detectable without touching its neighbours; `table_crc` covers
// everything before it so a damaged table never yields bogus offsets.

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

    /// Indices of the range chunks covering raw bytes `[start, end)`.
    /// Meaningful for [`ChunkKind::Range`] containers; chunks are stored
    /// in offset order so the result is a contiguous run. The rows come
    /// from a stored partition: one whose extent overflows `u64` is
    /// [`FsError::Corrupt`], never a panic or a wrapped comparison.
    pub fn covering(&self, start: u64, end: u64) -> Result<Vec<usize>, FsError> {
        let mut idxs = Vec::new();
        for (i, c) in self.chunks.iter().enumerate() {
            let c_end = c
                .offset
                .checked_add(u64::from(c.raw_len))
                .ok_or_else(|| FsError::Corrupt(format!("chunk {i} extent overflows")))?;
            if c.offset < end && c_end > start {
                idxs.push(i);
            }
        }
        Ok(idxs)
    }

    /// Indices of the progressive tiers with `tier <= min_tier`, i.e. the
    /// decodable prefix a fidelity-bounded read should fetch.
    pub fn tiers_up_to(&self, min_tier: u8) -> Vec<usize> {
        self.chunks.iter().enumerate().filter(|(_, c)| c.tier <= min_tier).map(|(i, _)| i).collect()
    }
}

/// True if `data` looks like an FCHK container (magic check only).
pub fn is_chunked(data: &[u8]) -> bool {
    data.len() >= 4 && data[..4] == CHUNK_MAGIC
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
    let table_crc = crc32(&out);
    out.extend_from_slice(&table_crc.to_le_bytes());
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

/// Parse an FCHK container's header and chunk table (payloads stay in
/// place; use [`ChunkTable::payload_offset`] to slice them).
pub fn parse_chunk_table(data: &[u8]) -> Result<ChunkTable, FsError> {
    if !is_chunked(data) || data.len() < CHUNK_HEADER + 4 {
        return Err(FsError::Corrupt("not an FCHK container".into()));
    }
    if data[4] != CHUNK_VERSION {
        return Err(FsError::Corrupt(format!("unknown FCHK version {}", data[4])));
    }
    let kind = match data[5] {
        0 => ChunkKind::Range,
        1 => ChunkKind::Progressive,
        k => return Err(FsError::Corrupt(format!("unknown FCHK kind {k}"))),
    };
    let inner_codec = CodecId(u16::from_le_bytes(data[6..8].try_into().expect("2 bytes")));
    let chunk_size = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    let raw_len = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(data[20..24].try_into().expect("4 bytes")) as usize;
    let table_end = CHUNK_HEADER + count.saturating_mul(CHUNK_ROW);
    if data.len() < table_end + 4 {
        return Err(FsError::Corrupt("FCHK table truncated".into()));
    }
    let want = u32::from_le_bytes(data[table_end..table_end + 4].try_into().expect("4 bytes"));
    if crc32(&data[..table_end]) != want {
        return Err(FsError::Corrupt("FCHK table checksum mismatch".into()));
    }
    let mut chunks = Vec::with_capacity(count);
    let mut pos = CHUNK_HEADER;
    let mut payload_bytes = 0usize;
    for _ in 0..count {
        let offset = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8 bytes"));
        let raw = u32::from_le_bytes(data[pos + 8..pos + 12].try_into().expect("4 bytes"));
        let stored = u32::from_le_bytes(data[pos + 12..pos + 16].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(data[pos + 16..pos + 20].try_into().expect("4 bytes"));
        let tier = data[pos + 20];
        chunks.push(ChunkMeta { offset, raw_len: raw, stored_len: stored, crc32: crc, tier });
        payload_bytes += stored as usize;
        pos += CHUNK_ROW;
    }
    if data.len() < table_end + 4 + payload_bytes {
        return Err(FsError::Corrupt("FCHK payloads truncated".into()));
    }
    Ok(ChunkTable { kind, inner_codec, chunk_size, raw_len, chunks })
}

/// Slice chunk `idx`'s stored payload out of the container and verify its
/// CRC.
pub fn chunk_payload<'a>(
    data: &'a [u8],
    table: &ChunkTable,
    idx: usize,
) -> Result<&'a [u8], FsError> {
    let c = table.chunks[idx];
    let at = table.payload_offset(idx);
    let end = at + c.stored_len as usize;
    if data.len() < end {
        return Err(FsError::Corrupt(format!("chunk {idx} payload truncated")));
    }
    let payload = &data[at..end];
    if crc32(payload) != c.crc32 {
        return Err(FsError::Corrupt(format!("chunk {idx} checksum mismatch")));
    }
    Ok(payload)
}

/// Decode one *range* chunk's stored payload to its raw bytes.
pub fn decode_chunk(table: &ChunkTable, idx: usize, payload: &[u8]) -> Result<Vec<u8>, FsError> {
    let c = table.chunks[idx];
    if c.stored_len == c.raw_len {
        return Ok(payload.to_vec());
    }
    let codec = fanstore_compress::registry::create(table.inner_codec)
        .map_err(|e| FsError::Corrupt(format!("chunk {idx}: {e}")))?;
    fanstore_compress::decompress_to_vec(codec.as_ref(), payload, c.raw_len as usize)
        .map_err(|e| FsError::Corrupt(format!("chunk {idx}: {e}")))
}

/// Decode a whole FCHK container back to the raw file bytes.
pub fn decode_chunked(data: &[u8]) -> Result<Vec<u8>, FsError> {
    let table = parse_chunk_table(data)?;
    match table.kind {
        ChunkKind::Range => {
            let mut out = vec![0u8; table.raw_len as usize];
            for idx in 0..table.chunks.len() {
                let payload = chunk_payload(data, &table, idx)?;
                let raw = decode_chunk(&table, idx, payload)?;
                let c = table.chunks[idx];
                let at = c.offset as usize;
                let end = at + c.raw_len as usize;
                if end > out.len() || raw.len() != c.raw_len as usize {
                    return Err(FsError::Corrupt(format!("chunk {idx} extent out of range")));
                }
                out[at..end].copy_from_slice(&raw);
            }
            Ok(out)
        }
        ChunkKind::Progressive => {
            let payloads: Result<Vec<&[u8]>, FsError> =
                (0..table.chunks.len()).map(|i| chunk_payload(data, &table, i)).collect();
            progressive::decode_prefix(&payloads?, table.raw_len as usize)
                .map_err(|e| FsError::Corrupt(format!("progressive decode: {e}")))
        }
    }
}

/// Decode a *prefix* of a progressive container's tiers (those with
/// `tier <= min_tier`) into an approximation of the file.
pub fn decode_progressive_prefix(data: &[u8], min_tier: u8) -> Result<Vec<u8>, FsError> {
    let table = parse_chunk_table(data)?;
    if table.kind != ChunkKind::Progressive {
        return decode_chunked(data);
    }
    let idxs = table.tiers_up_to(min_tier);
    let payloads: Result<Vec<&[u8]>, FsError> =
        idxs.iter().map(|&i| chunk_payload(data, &table, i)).collect();
    progressive::decode_prefix(&payloads?, table.raw_len as usize)
        .map_err(|e| FsError::Corrupt(format!("progressive decode: {e}")))
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
            assert!(is_chunked(&packed));
            assert_eq!(decode_chunked(&packed).unwrap(), data, "len={len} chunk={chunk}");
        }
    }

    #[test]
    fn covering_chunks_are_minimal() {
        let data = sample(1000);
        let packed = build_chunked(&data, 100, codec());
        let table = parse_chunk_table(&packed).unwrap();
        assert_eq!(table.chunks.len(), 10);
        assert_eq!(table.covering(0, 1).unwrap(), vec![0]);
        assert_eq!(table.covering(250, 251).unwrap(), vec![2]);
        assert_eq!(table.covering(250, 450).unwrap(), vec![2, 3, 4]);
        assert_eq!(table.covering(999, 1000).unwrap(), vec![9]);
        assert!(table.covering(1000, 1001).unwrap().is_empty());
    }

    #[test]
    fn crafted_chunk_offset_is_corrupt_not_overflow() {
        // A row that passes the table CRC but claims offset u64::MAX - 1:
        // its extent overflows u64. covering() must say Corrupt, not
        // panic (debug) or wrap into a bogus match (release).
        let mut packed = build_chunked(&sample(1000), 100, codec());
        let row1 = CHUNK_HEADER + CHUNK_ROW; // the offset field leads the row
        packed[row1..row1 + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        let table_end = CHUNK_HEADER + 10 * CHUNK_ROW;
        let crc = crc32(&packed[..table_end]);
        packed[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        let table = parse_chunk_table(&packed).expect("table CRC is correct");
        assert!(matches!(table.covering(0, u64::MAX), Err(FsError::Corrupt(_))));
    }

    #[test]
    fn progressive_container_roundtrip_and_prefix() {
        let vals: Vec<u8> =
            (0..800u32).flat_map(|i| ((i as f32) * 0.25).sin().to_le_bytes()).collect();
        let packed = build_progressive(&vals, 4);
        let table = parse_chunk_table(&packed).unwrap();
        assert_eq!(table.kind, ChunkKind::Progressive);
        assert_eq!(table.chunks.len(), 4);
        assert_eq!(decode_chunked(&packed).unwrap(), vals);
        let coarse = decode_progressive_prefix(&packed, 0).unwrap();
        assert_eq!(coarse.len(), vals.len());
        let err0 = fanstore_compress::progressive::max_abs_error(&vals, &coarse);
        let err_full = fanstore_compress::progressive::max_abs_error(
            &vals,
            &decode_progressive_prefix(&packed, TIER_FULL).unwrap(),
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
        assert!(decode_chunked(&packed).is_err());
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
