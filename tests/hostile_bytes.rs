//! Hostile bytes: one table over every decoder of untrusted bytes in
//! `fanstore` (DESIGN.md, "Byte layouts").
//!
//! Each row is a fixed, valid sample of one format plus the decoder that
//! reads it. Two tests walk the table:
//!
//! * `golden_bytes_are_pinned` — the encoder still produces, byte for
//!   byte, the sample captured when the layouts were frozen, so "no
//!   format change" is a test and not a promise.
//! * `every_decoder_survives_hostile_bytes` — the sample is truncated at
//!   every prefix length, every byte is flipped (as is, and again with
//!   the format's CRC re-sealed so the parser and not only the checksum
//!   sees the damage), and every count/length field is set to its type's
//!   maximum (a 64-bit one also to 1 TiB). A decoder must answer with its
//!   typed error or a decode; never a panic, and never an allocation out
//!   of scale with the input (a counting allocator watches the largest
//!   single request).
//!
//! A third test, `range_reads_size_no_buffer_past_the_file`, serves
//! range-chunked objects whose bytes pass every checksum yet lie — about
//! their geometry, or in a chunk's stream past a window — to `read_range`
//! on the rank that holds them and on one that fetches them, under the
//! same allocation watch; its twin, `whole_reads_size_no_buffer_past_the_file`,
//! serves the lying geometries to `read_whole` and to the one
//! whole-container decode. `a_nonzero_reserved_word_or_a_wrong_entry_count_is_damage`
//! holds the WAL to the fields no CRC can vouch for: a reserved word that
//! is not 0, and a manifest entry count that disagrees with its segment.
//!
//! Decoders private to their module are reached through the public entry
//! that calls them: PUT and GET_MANY requests are sent to a live daemon,
//! whose reply status is the verdict. `cluster::decode_partition_set`
//! has no such entry and keeps the same three mutations beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use fanstore_repro::compress::copy::WILD_SLACK;
use fanstore_repro::compress::crc32::crc32;
use fanstore_repro::compress::{compress_to_vec, registry, CodecFamily, CodecId};
use fanstore_repro::mpi::{launch, Channel};
use fanstore_repro::store::cache::CacheConfig;
use fanstore_repro::store::ckpt::frame::{decode_segment, encode_frame, scan_segment, FLAG_DELTA};
use fanstore_repro::store::ckpt::manifest::{Manifest, SegmentMeta};
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::daemon::{
    decode_get_many_reply, encode_get_many_request, encode_put, serve, status, tags, GetManyItem,
    GetManySpec, PartialChunk,
};
use fanstore_repro::store::meta::{encode_single, MetaEntry, MetaTable};
use fanstore_repro::store::metrics::MetricsRegistry;
use fanstore_repro::store::node::{decompress_object_into, LocalObject, NodeState};
use fanstore_repro::store::pack::{
    build_chunked, build_progressive, chunk_payload, decode_container, decode_tiers,
    parse_chunk_table, parse_partition, ChunkKind, PartitionBuilder, CHUNKED, CHUNK_HEADER,
    CHUNK_ROW, ENTRY_OVERHEAD, TIER_FULL,
};
use fanstore_repro::store::stat::{FileStat, STAT_SIZE};
use fanstore_repro::store::wal::segment::{build, index, parse_header, SegRow};
use fanstore_repro::store::wal::{
    encode_record, replay, BloomFilter, MemEntry, RamMedia, WalConfig, WalManifest, WalMedia,
    WalRecord, WalSegmentMeta, WalStore,
};
use fanstore_repro::store::FsError;

/// Largest single allocation requested since the last reset. The system
/// allocator does the work; this only watches request sizes.
struct PeakAlloc;

static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic store of the requested size, which touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` above with
        // this `layout`, as the caller guarantees to us.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: same block, layout and size the caller vouches for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The peak is process-wide, so the two tests take turns.
static TURN: Mutex<()> = Mutex::new(());

/// What a decode produced: one Debug string per decoded item (so a
/// truncated log can be checked to be a *prefix* of the original), or the
/// typed error.
type Decoded = Result<Vec<String>, FsError>;

/// A row's decoder: the outcome plus the peak allocation it caused.
type Decode<'a> = Box<dyn Fn(&[u8]) -> (Decoded, usize) + 'a>;

struct Row<'a> {
    name: &'static str,
    /// A valid encoding, produced by the format's encoder.
    good: Vec<u8>,
    /// [`dump`] of `good`, captured at the commit that froze the layouts.
    golden: &'static str,
    /// `(offset, width)` of every count and length field in `good`.
    fields: Vec<(usize, usize)>,
    /// Bytes under (or part of) a CRC: a flip here must be *detected*.
    sealed: Range<usize>,
    /// Whether every proper prefix is an error (false for readers that
    /// tolerate a torn tail or ignore what follows their header).
    strict: bool,
    /// Recompute the format's CRC fields in place, where it has any.
    reseal: Option<fn(&mut [u8])>,
    /// The typed errors this decoder may answer with.
    allowed: fn(&FsError) -> bool,
    decode: Decode<'a>,
}

fn at_rest(e: &FsError) -> bool {
    matches!(e, FsError::Corrupt(_))
}

/// Build a row's `decode` from the decoder proper and a projection of its
/// output to Debug strings; only the decoder runs under the allocation
/// watch.
fn decoder<'a, T>(
    decode: impl Fn(&[u8]) -> Result<T, FsError> + 'a,
    items: impl Fn(T) -> Vec<String> + 'a,
) -> Decode<'a> {
    Box::new(move |buf| {
        PEAK.store(0, Ordering::Relaxed);
        let got = decode(buf);
        let peak = PEAK.load(Ordering::Relaxed);
        (got.map(&items), peak)
    })
}

fn debug_each<T: std::fmt::Debug>(v: Vec<T>) -> Vec<String> {
    v.iter().map(|x| format!("{x:?}")).collect()
}

/// Hex of `bytes` in space-separated tokens of at most 32 bytes, with
/// every run of five or more equal bytes written as `hh*n` — partitions
/// and stat blocks are mostly padding. The mapping is one-to-one, so
/// string equality pins every byte.
fn dump(bytes: &[u8]) -> String {
    let mut tokens: Vec<String> = Vec::new();
    let mut plain = String::new();
    let mut i = 0;
    while i < bytes.len() {
        let run = bytes[i..].iter().take_while(|&&b| b == bytes[i]).count();
        if run >= 5 {
            tokens.extend((!plain.is_empty()).then(|| std::mem::take(&mut plain)));
            tokens.push(format!("{:02x}*{run}", bytes[i]));
            i += run;
        } else {
            plain.push_str(&format!("{:02x}", bytes[i]));
            i += 1;
            if plain.len() == 64 {
                tokens.push(std::mem::take(&mut plain));
            }
        }
    }
    tokens.extend((!plain.is_empty()).then_some(plain));
    tokens.join(" ")
}

fn le(buf: &[u8], at: usize, width: usize) -> Option<usize> {
    let mut raw = [0u8; 8];
    raw[..width].copy_from_slice(buf.get(at..at.checked_add(width)?)?);
    usize::try_from(u64::from_le_bytes(raw)).ok()
}

fn patch_crc(buf: &mut [u8], at: usize, covered: Range<usize>) {
    if at + 4 <= buf.len() && covered.end <= buf.len() && covered.start <= covered.end {
        let crc = crc32(&buf[covered]);
        buf[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Trailing placement: the last four bytes check everything before them.
fn reseal_trailing(buf: &mut [u8]) {
    if let Some(body) = buf.len().checked_sub(4) {
        patch_crc(buf, body, 0..body);
    }
}

/// FCHK: the CRC sits after `count` table rows and covers header + rows.
fn reseal_fchk(buf: &mut [u8]) {
    let table_end =
        le(buf, 20, 4).and_then(|n| n.checked_mul(CHUNK_ROW)?.checked_add(CHUNK_HEADER));
    if let Some(end) = table_end {
        patch_crc(buf, end, 0..end);
    }
}

/// `ckpt::frame` segments (and the WAL log, which reuses them): each
/// frame's CRC field covers its stored payload.
fn reseal_frames(buf: &mut [u8]) {
    let mut pos = 0usize;
    while let Some(stored) = le(buf, pos + 7, 4) {
        let Some(end) = (pos + 15).checked_add(stored).filter(|&e| e <= buf.len()) else { break };
        patch_crc(buf, pos + 11, pos + 15..end);
        pos = end;
    }
}

/// `(start, len)` of every entry frame of a GET_MANY reply that lies
/// wholly inside `buf`.
fn reply_entries(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 5usize;
    while let Some(len) = le(buf, pos, 4) {
        let Some(end) = (pos + 4).checked_add(len).filter(|&e| e <= buf.len()) else { break };
        out.push((pos + 4, len));
        pos = end;
    }
    out
}

/// GET_MANY reply: each whole or PARTIAL entry frame carries a leading
/// CRC (bytes 1..5) over everything after it.
fn reseal_reply(buf: &mut [u8]) {
    for (start, len) in reply_entries(buf) {
        if len > 5 {
            patch_crc(buf, start + 1, start + 5..start + len);
        }
    }
}

/// A metadata table's files, sorted: what a meta-table row decodes to.
fn meta_listing(table: MetaTable) -> Vec<String> {
    let mut files: Vec<_> = table.iter().map(|(p, e)| format!("{p} {e:?}")).collect();
    files.sort();
    files
}

fn lz() -> CodecId {
    CodecId::new(CodecFamily::Lz4Hc, 9)
}

fn sample_stat(ino: u64, size: u64) -> FileStat {
    let mut s = FileStat::regular(ino, size);
    s.owner_rank = 2;
    s.mtime = 1_700_000_000;
    s
}

fn ramp(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 7) as u8).collect()
}

fn floats(n: usize) -> Vec<u8> {
    (0..n).flat_map(|i| ((i as f32) * 0.25).to_le_bytes()).collect()
}

/// The one whole-container decode, for a file of `len` bytes.
fn whole(len: usize) -> impl Fn(&[u8]) -> Result<Vec<u8>, FsError> {
    move |buf| {
        let mut out = Vec::new();
        decode_container(buf, len, TIER_FULL, &mut out).map(|()| out)
    }
}

/// The partition the daemon serves: one plain, one range-chunked and one
/// progressive object, built by hand so the sample depends on nothing
/// but the pack, FCHK and codec layouts.
fn served_partition() -> Vec<u8> {
    let plain = b"payload ".repeat(8);
    let codec = registry::create(lz()).expect("lz4hc is registered");
    let mut b = PartitionBuilder::new();
    b.push("t/plain.bin", lz(), &sample_stat(1, 64), &compress_to_vec(codec.as_ref(), &plain));
    b.push("t/big.bin", CHUNKED, &sample_stat(2, 300), &build_chunked(&ramp(300), 128, lz()));
    b.push("t/model.f32", CHUNKED, &sample_stat(3, 64), &build_progressive(&floats(16), 2));
    b.finish()
}

fn ckpt_manifest() -> Manifest {
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

fn wal_manifest() -> WalManifest {
    let seg = |name: &str, bytes, crc, first_seq, last_seq, entries| WalSegmentMeta {
        name: name.into(),
        bytes,
        crc,
        first_seq,
        last_seq,
        entries,
    };
    WalManifest {
        publish: 3,
        trim_seq: 41,
        segments: vec![
            seg("wal/seg-00000002", 9000, 0xFACE, 20, 41, 12),
            seg("wal/seg-00000001", 4096, 0xBEEF, 1, 19, 7),
        ],
    }
}

fn wal_segment() -> Vec<u8> {
    let entry =
        |seq, value: Option<&[u8]>| MemEntry { seq, value: value.map(|v| Arc::new(v.to_vec())) };
    let entries = vec![
        ("a/data".to_string(), entry(3, Some(&b"compress me ".repeat(6)))),
        ("b/tomb".to_string(), entry(5, None)),
    ];
    build(&entries, lz(), 0.01).expect("segment builds").blob
}

fn wal_log() -> Vec<u8> {
    let mut log = Vec::new();
    let put = WalRecord { seq: 1, tombstone: false, path: "a/b".into(), value: b"hello".to_vec() };
    let tomb = WalRecord { seq: 2, tombstone: true, path: "a/b".into(), value: Vec::new() };
    encode_record(&mut log, &put);
    encode_record(&mut log, &tomb);
    log
}

/// The reply's count, per-entry length prefixes and, inside PARTIAL
/// entries, the chunk count and each chunk's raw and stored lengths.
fn reply_fields(reply: &[u8]) -> Vec<(usize, usize)> {
    let mut fields = vec![(1, 4)];
    for (start, len) in reply_entries(reply) {
        fields.push((start - 4, 4));
        if reply[start] != status::PARTIAL {
            continue;
        }
        let count_at = start + 5 + 2 + STAT_SIZE + 4 + 8;
        fields.push((count_at, 4));
        let mut chunk = count_at + 4;
        while chunk + 25 <= start + len {
            fields.push((chunk + 13, 4));
            fields.push((chunk + 17, 4));
            chunk += 25 + le(reply, chunk + 17, 4).expect("stored_len in range");
        }
    }
    fields
}

/// Send `payload` to the daemon on rank 0 and turn its status byte into a
/// verdict: a served request decodes to nothing, a rejected one to the
/// error a client would see. A daemon that died answers nothing, which
/// the timeout turns into a failure instead of a hang.
fn ask(service: &Channel, tag: u64, payload: &[u8]) -> Result<Vec<String>, FsError> {
    let reply = service
        .rpc_timeout(0, tag, payload.to_vec(), Duration::from_secs(10))
        .expect("the daemon survives the request");
    match reply.first() {
        Some(&s) if s == status::OK => Ok(Vec::new()),
        Some(&s) if s == status::BAD_REQUEST => Err(FsError::BadRange("BAD_REQUEST".into())),
        other => panic!("unexpected reply status {other:?}"),
    }
}

/// Run `f` over the table. Rank 0 is a live daemon; `f` runs on rank 1.
fn with_rows(f: impl Fn(&[Row<'_>]) + Send + Sync) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let partition = served_partition();
    launch(2, 1, |mut ctx| {
        let service = ctx.take_channel(0);
        if ctx.rank == 0 {
            let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
            state.load_partition(&partition).expect("sample partition loads");
            serve(state, service, None);
            return;
        }
        let specs = [
            GetManySpec::whole("t/plain.bin"),
            GetManySpec::range("t/big.bin", 100, 200),
            GetManySpec::tiered("t/model.f32", 0),
            GetManySpec::whole("t/missing"),
        ];
        let request = encode_get_many_request(&specs);
        let reply = service.rpc(0, tags::GET_MANY, request.clone()).expect("sample reply");
        // The daemon holds a sender to itself, so it outlives a panic on
        // this rank unless told to stop: shut it down either way.
        let verdict =
            catch_unwind(AssertUnwindSafe(|| f(&rows(&service, &partition, request, reply))));
        let _ = service.rpc_timeout(0, tags::SHUTDOWN, Vec::new(), Duration::from_secs(10));
        if let Err(panic) = verdict {
            resume_unwind(panic);
        }
    });
}

fn rows<'a>(
    service: &'a Channel,
    partition: &[u8],
    request: Vec<u8>,
    reply: Vec<u8>,
) -> Vec<Row<'a>> {
    let mut entries = parse_partition(partition).expect("sample parses");
    // The served files' sizes, in the order the GET_MANY sample asks for them.
    let sizes: Vec<u64> = entries.iter().map(|e| e.stat.size).collect();
    let model = entries.remove(2).data;
    let model_len = model.len();
    let fchk = entries.remove(1).data;
    let fchk_len = fchk.len();
    let mut stat_block = Vec::new();
    sample_stat(42, 1 << 33).encode(&mut stat_block);
    let meta_entry = MetaEntry { stat: sample_stat(9, 999), codec: lz() };
    let mut segment = Vec::new();
    encode_frame(&mut segment, 0, lz(), 4, b"abcd");
    encode_frame(&mut segment, FLAG_DELTA, lz(), 9, b"x");
    let wal_seg = wal_segment();
    let bloom_len = le(&wal_seg, 22, 4).expect("segment header");
    let entries_at = 26 + bloom_len;
    let reply_len = reply.len();
    let reply_fields = reply_fields(&reply);
    let expected = 4;
    vec![
        Row {
            name: "pack partition",
            good: partition.to_vec(),
            golden: GOLDEN_PARTITION,
            fields: vec![(0, 4), (4 + ENTRY_OVERHEAD - 8, 8)],
            sealed: 0..0,
            strict: true,
            reseal: None,
            allowed: at_rest,
            decode: decoder(parse_partition, debug_each),
        },
        Row {
            name: "FCHK table",
            good: fchk.clone(),
            golden: GOLDEN_FCHK,
            // count, then chunk 0's stored_len.
            fields: vec![(20, 4), (CHUNK_HEADER + 12, 4)],
            sealed: 0..fchk_len,
            strict: true,
            reseal: Some(reseal_fchk),
            allowed: at_rest,
            decode: decoder(
                |buf| {
                    let table = parse_chunk_table(buf)?;
                    for idx in 0..table.chunks.len() {
                        chunk_payload(buf, &table, idx)?;
                    }
                    Ok(table)
                },
                |t| debug_each(t.chunks),
            ),
        },
        Row {
            // The whole-container decode holds the header's `raw_len` to
            // the file's length before it sizes its output.
            name: "FCHK decode",
            good: fchk,
            golden: GOLDEN_FCHK,
            // raw_len, count, then chunk 0's raw_len.
            fields: vec![(12, 8), (20, 4), (CHUNK_HEADER + 8, 4)],
            sealed: 0..fchk_len,
            strict: true,
            reseal: Some(reseal_fchk),
            allowed: at_rest,
            decode: decoder(whole(300), |raw| vec![format!("{raw:?}")]),
        },
        Row {
            // A progressive container's `raw_len` sizes the tier decoder's
            // lanes and output; no table row sums to it.
            name: "FCHK progressive decode",
            good: model,
            golden: GOLDEN_FCHK_PROGRESSIVE,
            // raw_len, count, then tier 0's raw_len.
            fields: vec![(12, 8), (20, 4), (CHUNK_HEADER + 8, 4)],
            sealed: 0..model_len,
            strict: true,
            reseal: Some(reseal_fchk),
            allowed: at_rest,
            decode: decoder(whole(64), |raw| vec![format!("{raw:?}")]),
        },
        Row {
            name: "meta table",
            good: encode_single("out/x.h5", &meta_entry),
            golden: GOLDEN_META,
            fields: vec![(0, 4), (4, 2)],
            sealed: 0..0,
            strict: true,
            reseal: None,
            allowed: at_rest,
            decode: decoder(
                |buf| {
                    let mut table = MetaTable::new();
                    table.merge_encoded(buf)?;
                    Ok(table)
                },
                meta_listing,
            ),
        },
        Row {
            // Two entries merged into a table that already holds one: a
            // merge rejected at the second entry must not have inserted
            // the first.
            name: "meta table (rejected merge inserts nothing)",
            good: [
                &2u32.to_le_bytes()[..],
                &encode_single("out/x.h5", &meta_entry)[4..],
                &encode_single("out/y.h5", &meta_entry)[4..],
            ]
            .concat(),
            golden: GOLDEN_META_PAIR,
            fields: vec![(0, 4), (4, 2), (4 + 2 + 8 + 2 + STAT_SIZE, 2)],
            sealed: 0..0,
            strict: true,
            reseal: None,
            allowed: at_rest,
            decode: decoder(
                move |buf| {
                    let mut table = MetaTable::new();
                    table.insert("seed", meta_entry);
                    let merged = table.merge_encoded(buf);
                    if merged.is_err() {
                        let left: Vec<_> = table.iter().map(|(p, _)| p.as_str()).collect();
                        assert_eq!(left, ["seed"], "a rejected merge changed the table");
                    }
                    merged.map(|_| table)
                },
                meta_listing,
            ),
        },
        Row {
            name: "stat block",
            good: stat_block,
            golden: GOLDEN_STAT,
            fields: Vec::new(),
            sealed: 0..0,
            strict: true,
            reseal: None,
            allowed: at_rest,
            decode: decoder(FileStat::decode, |s| vec![format!("{s:?}")]),
        },
        Row {
            name: "PUT request",
            good: encode_put("ckpt/seg0", 3, b"payload"),
            golden: GOLDEN_PUT,
            fields: vec![(0, 2)],
            sealed: 0..0,
            // Cutting into the data bytes is a shorter, valid PUT.
            strict: false,
            reseal: None,
            allowed: |e| matches!(e, FsError::BadRange(_)),
            decode: decoder(|buf| ask(service, tags::PUT, buf), |v| v),
        },
        Row {
            name: "GET_MANY request",
            good: request,
            golden: GOLDEN_REQUEST,
            fields: vec![(0, 4), (4, 2)],
            sealed: 0..0,
            strict: true,
            reseal: None,
            allowed: |e| matches!(e, FsError::BadRange(_)),
            decode: decoder(|buf| ask(service, tags::GET_MANY, buf), |v| v),
        },
        Row {
            name: "GET_MANY reply (whole + PARTIAL + NOT_FOUND)",
            good: reply,
            golden: GOLDEN_REPLY,
            fields: reply_fields,
            sealed: 0..reply_len,
            strict: true,
            reseal: Some(reseal_reply),
            // A flipped status byte may turn an entry into any other kind.
            allowed: |e| {
                matches!(
                    e,
                    FsError::Comm(_)
                        | FsError::Corrupt(_)
                        | FsError::BadRange(_)
                        | FsError::NotFound(_)
                )
            },
            decode: decoder(
                move |buf| {
                    // The sample's last entry is NOT_FOUND; any *other*
                    // entry failing fails the decode. The entries borrow
                    // `buf`, so they are rendered here.
                    let mut items = decode_get_many_reply(buf, expected)?;
                    match items.pop() {
                        Some(Err(FsError::NotFound(_))) => {}
                        Some(Err(e)) => return Err(e),
                        other => return Err(FsError::Comm(format!("last entry {other:?}"))),
                    }
                    items
                        .into_iter()
                        .enumerate()
                        .map(|(j, item)| {
                            // A PARTIAL answer's `raw_len`s size its decode and
                            // only the frame CRC, which anyone can reseal,
                            // covers them: check and decode it as the read
                            // that asked for it does (entry 1 a range read,
                            // entry 2 a tier read), against the file's size.
                            if let Ok(GetManyItem::Partial(p)) = &item {
                                if j == 1 {
                                    p.check_extent(ChunkKind::Range, sizes[j])?;
                                    for c in &p.chunks {
                                        c.decode(p.inner_codec, c.raw_len, &mut Vec::new())?;
                                    }
                                } else {
                                    p.check_extent(ChunkKind::Progressive, sizes[j])?;
                                    let tiers = p.chunks.iter().map(PartialChunk::verified);
                                    decode_tiers(tiers, p.raw_len, &mut Vec::new())?;
                                }
                            }
                            item.map(|i| format!("{i:?}"))
                        })
                        .collect()
                },
                |items| items,
            ),
        },
        Row {
            name: "ckpt segment (strict)",
            good: segment.clone(),
            golden: GOLDEN_SEGMENT,
            fields: vec![(7, 4), (15 + 4 + 7, 4)],
            // Frame 0 from its stored_len field on; flags, codec and
            // raw_len sit outside the frame CRC.
            sealed: 7..15 + 4,
            strict: false, // a cut on the frame boundary is a shorter segment
            reseal: Some(reseal_frames),
            allowed: at_rest,
            decode: decoder(decode_segment, debug_each),
        },
        Row {
            name: "ckpt segment (torn-tail scan)",
            good: segment,
            golden: GOLDEN_SEGMENT,
            fields: vec![(7, 4), (15 + 4 + 7, 4)],
            sealed: 0..0,
            strict: false,
            reseal: Some(reseal_frames),
            allowed: at_rest,
            decode: decoder(|buf| Ok(scan_segment(buf).0), debug_each),
        },
        Row {
            name: "WAL log",
            good: wal_log(),
            golden: GOLDEN_WAL_LOG,
            // Frame 0's stored_len, then the record's path length.
            fields: vec![(7, 4), (15 + 17, 2)],
            sealed: 0..0,
            strict: false,
            reseal: Some(reseal_frames),
            allowed: at_rest,
            decode: decoder(|buf| Ok(replay(buf).0), debug_each),
        },
        Row {
            name: "WAL segment header",
            good: wal_seg.clone(),
            golden: GOLDEN_WAL_SEGMENT,
            fields: vec![(22, 4)],
            sealed: 0..0,
            strict: false, // the header reader never looks at the entry area
            reseal: None,
            allowed: at_rest,
            decode: decoder(parse_header, |h| {
                vec![format!("{} {} {:?} {}", h.first_seq, h.last_seq, h.bloom, h.entries_at)]
            }),
        },
        Row {
            name: "WAL segment entries",
            good: wal_seg.clone(),
            golden: GOLDEN_WAL_SEGMENT,
            // bloom_len, the partition's count, entry 0's size.
            fields: vec![(22, 4), (entries_at, 4), (entries_at + 4 + ENTRY_OVERHEAD - 8, 8)],
            sealed: 0..0,
            strict: true,
            reseal: None,
            allowed: at_rest,
            // The index walk, then each row's stored bytes carried out of
            // the blob, as compaction carries them.
            decode: decoder(
                |buf| {
                    let rows = index(buf)?.rows;
                    let carry = |row: &SegRow| match row.carry(buf) {
                        Some(part) => Ok(format!("{part:?}")),
                        None => Err(FsError::Corrupt(format!("{}: outside the segment", row.path))),
                    };
                    rows.iter().map(carry).collect::<Result<Vec<_>, _>>()
                },
                |items| items,
            ),
        },
        Row {
            // What `WalStore::open` runs over every published segment.
            name: "WAL segment index",
            good: wal_seg.clone(),
            golden: GOLDEN_WAL_SEGMENT,
            fields: vec![(22, 4), (entries_at, 4), (entries_at + 4 + ENTRY_OVERHEAD - 8, 8)],
            sealed: 0..0,
            strict: true,
            reseal: None,
            allowed: at_rest,
            decode: decoder(index, |i| i.rows.iter().map(|r| format!("{r:?}")).collect()),
        },
        Row {
            name: "bloom filter",
            good: wal_seg[26..entries_at].to_vec(),
            golden: GOLDEN_BLOOM,
            // nbits sizes the bit array.
            fields: vec![(4, 8)],
            sealed: 0..0,
            strict: true,
            reseal: None,
            allowed: at_rest,
            decode: decoder(BloomFilter::decode, |b| vec![format!("{b:?}")]),
        },
        Row {
            name: "ckpt manifest",
            good: ckpt_manifest().encode(),
            golden: GOLDEN_CKPT_MANIFEST,
            // raw_bytes (what a generation's rebuild buffer is sized by),
            // the segment count, segment 0's name length.
            fields: vec![(26, 8), (42, 4), (46, 2)],
            sealed: 0..usize::MAX,
            strict: true,
            reseal: Some(reseal_trailing),
            allowed: at_rest,
            decode: decoder(Manifest::decode, |m| vec![format!("{m:?}")]),
        },
        Row {
            name: "WAL manifest",
            good: wal_manifest().encode(),
            golden: GOLDEN_WAL_MANIFEST,
            fields: vec![(22, 4), (26, 2)],
            sealed: 0..usize::MAX,
            strict: true,
            reseal: Some(reseal_trailing),
            allowed: at_rest,
            decode: decoder(WalManifest::decode, |m| vec![format!("{m:?}")]),
        },
    ]
}

#[test]
fn golden_bytes_are_pinned() {
    with_rows(|rows| {
        for row in rows {
            assert_eq!(dump(&row.good), row.golden, "{}: encoded bytes changed", row.name);
        }
    });
}

/// How a mutated input may decode.
#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    /// The damage must be detected.
    MustFail,
    /// An error, or the leading items of the original decode (a torn tail).
    ErrorOrPrefix,
    /// An error or any decode: the mutation may spell a different valid value.
    ErrorOrAny,
}

fn judge(row: &Row<'_>, what: &str, input: &[u8], original: &[String], verdict: Verdict) {
    let run = catch_unwind(AssertUnwindSafe(|| (row.decode)(input)));
    let Ok((got, peak)) = run else { panic!("{}: {what}: the decoder panicked", row.name) };
    // No decoder needs a single block beyond a small multiple of its
    // input (the largest legitimate ratio is a parsed row a few times the
    // size of its encoding); a count field taken at its word asks for
    // gigabytes.
    let bound = 16 * input.len() + (64 << 10);
    assert!(
        peak <= bound,
        "{}: {what}: allocated {peak} bytes for {} input",
        row.name,
        input.len()
    );
    match got {
        Err(e) => assert!((row.allowed)(&e), "{}: {what}: untyped error {e:?}", row.name),
        Ok(items) => {
            assert!(verdict != Verdict::MustFail, "{}: {what}: decoded to {items:?}", row.name);
            if verdict == Verdict::ErrorOrPrefix {
                assert!(
                    original.starts_with(&items),
                    "{}: {what}: decoded {items:?}, not a prefix of {original:?}",
                    row.name
                );
            }
        }
    }
}

#[test]
fn every_decoder_survives_hostile_bytes() {
    with_rows(|rows| {
        for row in rows {
            let original = (row.decode)(&row.good).0.expect("the sample decodes");
            let strict = if row.strict { Verdict::MustFail } else { Verdict::ErrorOrPrefix };
            for cut in 0..row.good.len() {
                judge(row, &format!("cut to {cut}"), &row.good[..cut], &original, strict);
            }
            for at in 0..row.good.len() {
                for mask in [0x01u8, 0x80] {
                    let mut bad = row.good.clone();
                    bad[at] ^= mask;
                    let detected = if row.sealed.contains(&at) {
                        Verdict::MustFail
                    } else {
                        Verdict::ErrorOrAny
                    };
                    judge(row, &format!("byte {at} ^ {mask:#04x}"), &bad, &original, detected);
                    if let Some(reseal) = row.reseal {
                        reseal(&mut bad);
                        let what = format!("byte {at} ^ {mask:#04x}, resealed");
                        judge(row, &what, &bad, &original, Verdict::ErrorOrAny);
                    }
                }
            }
            for &(at, width) in &row.fields {
                // The type's maximum, and for a 64-bit length also 1 TiB:
                // a size an allocator would attempt, not reject outright.
                let huge = (width == 8).then_some(1u64 << 40);
                for value in [u64::MAX].into_iter().chain(huge) {
                    let mut bad = row.good.clone();
                    bad[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                    if let Some(reseal) = row.reseal {
                        reseal(&mut bad);
                    }
                    let what = format!("{width}-byte field at {at} set to {value:#x}");
                    judge(row, &what, &bad, &original, Verdict::ErrorOrPrefix);
                }
            }
        }
    });
}

/// A one-segment WAL medium, its segment rewritten by `lie` and the
/// manifest resealed around it, reopened.
fn reopen_after(lie: impl FnOnce(&mut Vec<u8>, &mut WalSegmentMeta)) -> Result<(), FsError> {
    let (media, cfg) = (RamMedia::new(Duration::ZERO), WalConfig::default());
    let (store, _) = WalStore::open(media.clone(), cfg.clone(), &MetricsRegistry::new())?;
    store.put("a/data", b"compress me ".repeat(6))?;
    store.unlink("b/tomb")?;
    store.flush()?;
    drop(store);
    let manifest_name = format!("{}/MANIFEST", cfg.dir);
    let mut manifest = WalManifest::decode(&media.read(&manifest_name).expect("published"))?;
    let meta = &mut manifest.segments[0];
    let mut blob = (*media.read(&meta.name).expect("published")).clone();
    lie(&mut blob, meta);
    (meta.bytes, meta.crc) = (blob.len() as u64, crc32(&blob));
    media.write(&meta.name, blob)?;
    media.write(&manifest_name, manifest.encode())?;
    WalStore::open(media, cfg, &MetricsRegistry::new()).map(|_| ())
}

/// Bytes that every CRC vouches for can still lie: a WAL log record or
/// segment row whose reserved word is not 0, and a manifest whose
/// `entries` disagrees with the segment it names.
#[test]
fn a_nonzero_reserved_word_or_a_wrong_entry_count_is_damage() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // The log sample's second record: its frame starts after frame 0's
    // 15-byte header and payload; its reserved word follows its seq.
    let mut log = wal_log();
    let second = 15 + le(&log, 7, 4).expect("frame 0's stored_len");
    log[second + 15 + 8] = 1;
    reseal_frames(&mut log);
    let (records, torn) = replay(&log);
    assert!(torn, "a record with a nonzero reserved word ends replay as torn");
    assert_eq!(records, replay(&wal_log()).0[..1], "the records before it replay");

    // A segment row's reserved word sits 9 bytes before its stored value:
    // the metadata prefix is seq (8), reserved (8), flags (1).
    let reserved_at = |blob: &[u8]| index(blob).expect("the sample indexes").rows[0].offset - 9;
    let mut segment = wal_segment();
    let at = reserved_at(&segment);
    segment[at] = 1;
    assert!(matches!(index(&segment), Err(FsError::Corrupt(_))), "a segment row's reserved word");

    assert_eq!(reopen_after(|_, _| {}), Ok(()), "the resealed medium itself opens");
    let got = reopen_after(|blob, _| {
        let at = reserved_at(blob);
        blob[at] = 1;
    });
    assert!(matches!(got, Err(FsError::Corrupt(_))), "open over a reserved word: {got:?}");
    let got = reopen_after(|_, meta| meta.entries += 1);
    assert!(
        matches!(&got, Err(FsError::Corrupt(m)) if m.contains("wal/seg-00000001")),
        "open over a miscounted manifest names the segment: {got:?}"
    );
}

/// A range-chunked container of `data` in `chunk`-byte `lz4fast-1`
/// chunks, rewritten by `lie` and its table CRC resealed: a partition
/// whose every checksum holds can still carry it.
fn lying_fchk(data: &[u8], chunk: usize, lie: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut fchk = build_chunked(data, chunk, lz4fast());
    lie(&mut fchk);
    reseal_fchk(&mut fchk);
    fchk
}

fn lz4fast() -> CodecId {
    CodecId::new(CodecFamily::Lz4Fast, 1)
}

/// Byte range of the `width`-byte field at `at` in chunk row `row` of an
/// FCHK container.
fn row_field(row: usize, at: usize, width: usize) -> Range<usize> {
    let start = CHUNK_HEADER + row * CHUNK_ROW + at;
    start..start + width
}

/// Push range containers of a 300 B ramp whose every checksum holds but
/// whose tables do not tile the file: `h/lying.bin`, `h/overrun.bin`,
/// `h/shifted.bin`, `h/gap.bin` and `h/overlap.bin`.
fn push_lying_geometries(b: &mut PartitionBuilder) {
    let small = ramp(300);
    // `chunk_size` and `raw_len` both claim 4 GiB; the file is 300 B.
    let huge = u32::MAX - 15;
    let lying = lying_fchk(&small, 300, |f| {
        f[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        f[12..20].copy_from_slice(&u64::from(huge).to_le_bytes());
        f[row_field(0, 8, 4)].copy_from_slice(&huge.to_le_bytes());
    });
    b.push("h/lying.bin", CHUNKED, &sample_stat(1, 300), &lying);
    // Chunk 1 of two claims bytes [250, 400) of the 300 B file.
    let overrun = lying_fchk(&small, 150, |f| {
        f[row_field(1, 0, 8)].copy_from_slice(&250u64.to_le_bytes());
    });
    b.push("h/overrun.bin", CHUNKED, &sample_stat(2, 300), &overrun);
    // Chunk 1 of two claims bytes [100, 250): inside the file, but not
    // where its index puts it, which is where the cache serves it from.
    let shifted = lying_fchk(&small, 150, |f| {
        f[row_field(1, 0, 8)].copy_from_slice(&100u64.to_le_bytes());
    });
    b.push("h/shifted.bin", CHUNKED, &sample_stat(4, 300), &shifted);
    // Chunk 1 of three claims bytes [110, 210): nothing covers [100, 110).
    let gap = lying_fchk(&small, 100, |f| {
        f[row_field(1, 0, 8)].copy_from_slice(&110u64.to_le_bytes());
    });
    b.push("h/gap.bin", CHUNKED, &sample_stat(5, 300), &gap);
    // Chunk 2 of three claims bytes [150, 250), over chunk 1's.
    let overlap = lying_fchk(&small, 100, |f| {
        f[row_field(2, 0, 8)].copy_from_slice(&150u64.to_le_bytes());
    });
    b.push("h/overlap.bin", CHUNKED, &sample_stat(6, 300), &overlap);
}

#[test]
fn range_reads_size_no_buffer_past_the_file() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let text: Vec<u8> = (0..4096u32).map(|i| (i / 3 % 251) as u8).collect();
    let mut b = PartitionBuilder::new();
    push_lying_geometries(&mut b);
    // One 4 KiB chunk whose stream is that of its first 3 KiB followed by
    // an offset of 0: a decode that reaches byte 3072 fails there.
    let damaged = lying_fchk(&text, 4096, |f| {
        let codec = registry::create(lz4fast()).expect("lz4fast is registered");
        let mut stream = compress_to_vec(codec.as_ref(), &text[..3072]);
        stream.extend_from_slice(&[0, 0]);
        f.truncate(CHUNK_HEADER + CHUNK_ROW + 4);
        f[row_field(0, 12, 4)].copy_from_slice(&(stream.len() as u32).to_le_bytes());
        f[row_field(0, 16, 4)].copy_from_slice(&crc32(&stream).to_le_bytes());
        f.extend_from_slice(&stream);
    });
    b.push("h/damaged.bin", CHUNKED, &sample_stat(3, 4096), &damaged);

    let rows = [
        "4 GiB geometry",
        "a chunk past the file",
        "a chunk off its index",
        "a window before the damage",
        "a second window before it",
        "a window reaching the damage",
        "the whole file",
    ];
    PEAK.store(0, Ordering::Relaxed);
    let cluster = ClusterConfig { nodes: 2, ..Default::default() };
    let verdicts = FanStore::run(cluster, vec![b.finish()], |fs| {
        let corrupt = |got: Result<Vec<u8>, FsError>| matches!(got, Err(FsError::Corrupt(_)));
        let exact = |got: Result<Vec<u8>, FsError>, want: &[u8]| got.is_ok_and(|got| got == want);
        [
            corrupt(fs.read_range("h/lying.bin", 0, 100)),
            corrupt(fs.read_range("h/overrun.bin", 260, 280)),
            corrupt(fs.read_range("h/shifted.bin", 160, 170)),
            exact(fs.read_range("h/damaged.bin", 0, 1000), &text[..1000]),
            exact(fs.read_range("h/damaged.bin", 1000, 2000), &text[1000..2000]),
            corrupt(fs.read_range("h/damaged.bin", 3000, 3100)),
            corrupt(fs.read_whole("h/damaged.bin")),
        ]
    });
    let peak = PEAK.load(Ordering::Relaxed);
    // Rank 0 holds the partition and reads it locally; rank 1 fetches.
    for (rank, verdict) in verdicts.iter().enumerate() {
        for (row, ok) in rows.iter().zip(verdict) {
            assert!(ok, "rank {rank}: {row}");
        }
    }
    assert!(peak <= 1 << 20, "a 2-node run of small range reads allocated {peak} bytes at once");
}

/// The whole-path twin of `range_reads_size_no_buffer_past_the_file`: a
/// whole read of a container whose table does not tile its file is
/// `Corrupt` on the rank that holds it and on one that fetches it, and
/// the one whole-container decode reserves nothing past the file. So is
/// a whole read of a plain `lz4fast-1` file whose owner's copy claims a
/// 4 GiB stat: a whole answer is sized by the reader's metadata, not by
/// the stat it carries.
#[test]
fn whole_reads_size_no_buffer_past_the_file() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut b = PartitionBuilder::new();
    push_lying_geometries(&mut b);
    let entries = parse_partition(&b.finish()).expect("the partition parses");
    for e in &entries {
        let (size, mut out) = (e.stat.size as usize, Vec::new());
        PEAK.store(0, Ordering::Relaxed);
        let got = decompress_object_into(e.codec, &e.data, size, &e.path, &mut out);
        let peak = PEAK.load(Ordering::Relaxed);
        assert!(
            matches!(got, Err(FsError::Corrupt(_))),
            "{}: decoded {}: {got:?}",
            e.path,
            out.len()
        );
        assert!(
            peak <= size + WILD_SLACK,
            "{}: allocated {peak} bytes for a {size} B file",
            e.path
        );
    }
    // The same geometries, plus the 300 B file whose owner's copy is
    // swapped for one claiming 4 GiB once the cluster has loaded.
    let (stat_path, small) = ("h/stat.bin", ramp(300));
    let codec = registry::create(lz4fast()).expect("lz4fast is registered");
    let stream = Arc::new(compress_to_vec(codec.as_ref(), &small));
    let mut b = PartitionBuilder::new();
    push_lying_geometries(&mut b);
    b.push(stat_path, lz4fast(), &sample_stat(8, 300), &stream);
    let mut paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
    paths.push(stat_path);
    let huge = u64::from(u32::MAX - 15);
    PEAK.store(0, Ordering::Relaxed);
    let loaded = Barrier::new(2);
    let cluster = ClusterConfig { nodes: 2, ..Default::default() };
    let verdicts = FanStore::run(cluster, vec![b.finish()], |fs| {
        if fs.rank() == 0 {
            let obj = LocalObject::new(lz4fast(), sample_stat(8, huge), Arc::clone(&stream));
            fs.state().local.write().insert(stat_path.to_string(), obj);
        }
        loaded.wait();
        let corrupt = |path: &str| matches!(fs.read_whole(path), Err(FsError::Corrupt(_)));
        paths.iter().map(|path| corrupt(path)).collect::<Vec<_>>()
    });
    let peak = PEAK.load(Ordering::Relaxed);
    // Rank 0 holds the partition and reads it locally; rank 1 fetches.
    for (rank, verdict) in verdicts.iter().enumerate() {
        for (path, ok) in paths.iter().zip(verdict) {
            assert!(ok, "rank {rank}: read_whole({path}) is not Corrupt");
        }
    }
    assert!(peak <= 1 << 20, "a 2-node run of small whole reads allocated {peak} bytes at once");
}

/// A tier read holds a PARTIAL answer to the file's size from its own
/// metadata, not to the stat the answer carries: an owner whose copy
/// claims a 4 GiB file behind a 4 GiB FCHK `raw_len` (the owner seals the
/// frame, so every CRC holds) is `Corrupt` on the rank that holds it and
/// on one that fetches it, and nothing is sized by the lie.
#[test]
fn tier_reads_size_no_buffer_by_the_answers_stat() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (path, vals) = ("h/tiers.f32", floats(64));
    let mut b = PartitionBuilder::new();
    b.push(path, CHUNKED, &sample_stat(7, vals.len() as u64), &build_progressive(&vals, 3));
    let huge = u64::from(u32::MAX - 15);
    let mut lying = build_progressive(&vals, 3);
    lying[12..20].copy_from_slice(&huge.to_le_bytes());
    reseal_fchk(&mut lying);
    let lying = Arc::new(lying);
    PEAK.store(0, Ordering::Relaxed);
    let loaded = Barrier::new(2);
    let cluster = ClusterConfig { nodes: 2, ..Default::default() };
    let verdicts = FanStore::run(cluster, vec![b.finish()], |fs| {
        if fs.rank() == 0 {
            let obj = LocalObject::new(CHUNKED, sample_stat(7, huge), Arc::clone(&lying));
            fs.state().local.write().insert(path.to_string(), obj);
        }
        loaded.wait();
        fs.read_whole_tier(path, 0)
    });
    let peak = PEAK.load(Ordering::Relaxed);
    // Rank 0 holds the lying copy and reads it locally; rank 1 fetches it.
    for (rank, got) in verdicts.iter().enumerate() {
        assert!(matches!(got, Err(FsError::Corrupt(_))), "rank {rank}: {got:?}");
    }
    assert!(peak <= 1 << 20, "a 2-node run of small tier reads allocated {peak} bytes at once");
}

// Captured at commit 1554774 (the parent of the `framing` module).
const GOLDEN_PARTITION: &str = "\
    03000000742f706c61696e2e62696e 00*245 090457fa 00*6 01 00*7 01 00*7 a4810000e8030000e803 \
    00*14 40 00*8 10 00*6 01 00*24 f15365 00*28 02 00*7 ffffffff 00*12 0c 00*7 \
    8f7061796c6f616420080025742f6269672e62696e 00*248 1057fa 00*6 02 00*7 01 00*7 \
    a4810000e8030000e803 00*14 2c01 00*7 10 00*6 01 00*24 f15365 00*28 02 00*7 ffffffff \
    00*12 7c 00*7 4643484b01000904800000002c01 00*6 03 00*11 800000000b000000285e6fb50080 \
    00*7 800000000b000000ec8c2c22000001 00*6 \
    2c0000000b0000008db391d600bef649677f000102030405060700667f020304 \
    050600010700667f04050600010203070012742f6d6f64656c2e663332 00*246 1057fa 00*6 03 00*7 01 \
    00*7 a4810000e8030000e803 00*14 40 00*8 10 00*6 01 00*24 f15365 00*28 02 00*7 ffffffff \
    00*12 6c 00*7 4643484b0101 00*6 40 00*7 02 00*11 1c0000001c0000008c711873 00*9 \
    0a0000000a000000bb3809120120775664010002012064000000fffe000200b3 \
    fc00f200c8f0a0cc00aa00010001010201201f0001000c";
const GOLDEN_FCHK: &str = "\
    4643484b01000904800000002c01 00*6 03 00*11 800000000b000000285e6fb50080 00*7 \
    800000000b000000ec8c2c22000001 00*6 \
    2c0000000b0000008db391d600bef649677f000102030405060700667f020304 \
    050600010700667f04050600010203070012";
// `t/model.f32`'s container, the tail of `GOLDEN_PARTITION`.
const GOLDEN_FCHK_PROGRESSIVE: &str = "\
    4643484b0101 00*6 40 00*7 02 00*11 1c0000001c0000008c711873 00*9 \
    0a0000000a000000bb3809120120775664010002012064000000fffe000200b3 \
    fc00f200c8f0a0cc00aa00010001010201201f0001000c";
const GOLDEN_META: &str = "\
    0100000008006f75742f782e6835090457fa 00*6 09 00*7 01 00*7 a4810000e8030000e803 00*14 \
    e703 00*7 10 00*6 02 00*24 f15365 00*28 02 00*7 ffffffff 00*12";
// `GOLDEN_META` with a count of two and its entry repeated as `out/y.h5`.
const GOLDEN_META_PAIR: &str = "\
    0200000008006f75742f782e6835090457fa 00*6 09 00*7 01 00*7 a4810000e8030000e803 00*14 \
    e703 00*7 10 00*6 02 00*24 f15365 00*28 02 00*7 ffffffff 00*12 \
    08006f75742f792e6835090457fa 00*6 09 00*7 01 00*7 a4810000e8030000e803 00*14 e703 00*7 \
    10 00*6 02 00*24 f15365 00*28 02 00*7 ffffffff 00*12";
const GOLDEN_STAT: &str = "\
    57fa 00*6 2a 00*7 01 00*7 a4810000e8030000e803 00*18 020000000010 00*9 01 00*21 f15365 \
    00*28 02 00*7 ffffffff 00*12";
const GOLDEN_PUT: &str = "0900636b70742f73656730030000007061796c6f6164";
const GOLDEN_REQUEST: &str = "\
    040000800b00742f706c61696e2e62696e000900742f6269672e62696e0164 00*7 c8 00*7 \
    0b00742f6d6f64656c2e66333202000900742f6d697373696e6700";
const GOLDEN_REPLY: &str = "\
    0004000000a3000000009bf64e78090457fa 00*6 01 00*7 01 00*7 a4810000e8030000e803 00*14 40 \
    00*8 10 00*6 01 00*24 f15365 00*28 02 00*23 \
    8f7061796c6f616420080025ef00000004f43e1f9a090457fa 00*6 02 00*7 01 00*7 \
    a4810000e8030000e803 00*14 2c01 00*7 10 00*6 01 00*24 f15365 00*28 02 00*23 800000002c01 \
    00*6 02 00*16 800000000b000000285e6fb57f00010203040506070066010000000080 00*7 \
    800000000b000000ec8c2c227f02030405060001070066dc000000044f647c67 000057fa 00*6 03 00*7 \
    01 00*7 a4810000e8030000e803 00*14 40 00*8 10 00*6 01 00*24 f15365 00*28 02 00*27 40 \
    00*7 01 00*16 1c0000001c0000008c711873010002012064000000fffe000200b3fc00f200c8 \
    f0a0cc00aa0001000100000001";
const GOLDEN_SEGMENT: &str = "\
    000904040000000400000011cd82ed6162636401090409000000010000008316 dc8c78";
const GOLDEN_WAL_LOG: &str = "\
    0000001b0000001b0000006be47b0f01 00*16 \
    0300612f6268656c6c6f00000016000000160000001b4830f202 00*15 010300612f62";
const GOLDEN_WAL_SEGMENT: &str = "\
    46535753010003 00*7 05 00*7 1c0000001000000040 00*7 02 00*7 \
    6f01a0191af0093a02000000612f64617461 00*250 090457fa 00*6 03 00*7 01 00*7 \
    a4810000e8030000e803 00*14 48 00*8 10 00*6 01 00*55 ffffffff00000000ffffffff 00*12 21 \
    00*7 03 00*16 cf636f6d7072657373206d65200c0029622f746f6d62 00*252 57fa 00*6 05 00*7 01 \
    00*7 a4810000e8030000e803 00*23 10 00*62 ffffffff00000000ffffffff 00*12 11 00*7 05 00*15 \
    01";
const GOLDEN_BLOOM: &str = "1000000040 00*7 02 00*7 6f01a0191af0093a";
const GOLDEN_CKPT_MANIFEST: &str = "\
    4653434b010007 00*7 04 00*9 010040420f 00*5 40e201 00*5 \
    020000000700736567303030301000000060ea 00*6 adde000007007365673030303103000000e0f7 00*6 \
    efbe0000e5fd27de";
const GOLDEN_WAL_MANIFEST: &str = "\
    4653574c010003 00*7 29 00*7 02000000100077616c2f7365672d 30*7 322823 00*6 cefa000014 \
    00*7 29 00*7 0c000000100077616c2f7365672d 30*7 310010 00*6 efbe000001 00*7 13 00*7 \
    07000000336d1363";
