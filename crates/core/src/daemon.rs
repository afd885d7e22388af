//! The FanStore daemon: one service loop per node (paper §V-A, §V-D).
//!
//! The daemon owns the node's receiving endpoint on the service channel
//! and answers seven request kinds ([`tags`]):
//!
//! * **GET_MANY** — the one read operation: up to [`MAX_BATCH`] entries of
//!   `{path, range, min_tier}` answered in one reply with the
//!   *compressed* bytes plus codec and stat; decompression happens on the
//!   requesting node (so the interconnect carries compressed data,
//!   §IV-C2). Each entry is framed with its own status byte and CRC32 so
//!   a missing or corrupted entry fails alone; a whole-file read is a
//!   batch of one whose entry sets neither range nor tier. The node's one
//!   lookup finds each entry's bytes and its one planner
//!   ([`LocalObject::plan`]) decides which answer it; the daemon only
//!   encodes the answer (DESIGN.md §6, "Read protocol").
//! * **GET_META** — metadata lookup: the stat fallback for paths not yet
//!   in the requester's local view.
//! * **PUT_META** — write-metadata insertion: a peer closed an output file
//!   and forwards its metadata to this rank (§V-D).
//! * **PUT** / **UNLINK** — push a whole object onto this node's write
//!   store, or remove one (checkpoint replication and GC).
//! * **SHUTDOWN** — terminate the loop.

use std::collections::VecDeque;
use std::sync::Arc;

use fanstore_compress::crc32::crc32;
use fanstore_compress::CodecId;
use mpi_sim::{Channel, Message};

use crate::framing::{put_str16, reserve_crc, Malformed, Reader};
use crate::meta::encode_single;
use crate::metrics::now_us;
use crate::node::{LocalObject, NodeState};
use crate::pack::{row_fits, ChunkKind, ChunkMeta};
use crate::stat::{FileStat, STAT_SIZE};
use crate::trace::{SpanEvent, TraceRecorder};
use crate::FsError;

/// Service-channel tags.
pub mod tags {
    /// Terminate the daemon loop.
    pub const SHUTDOWN: u64 = 0;
    /// Insert forwarded write metadata.
    pub const PUT_META: u64 = 2;
    /// Fetch a file's metadata (stat fallback for paths not yet in the
    /// local view).
    pub const GET_META: u64 = 3;
    /// Push a whole object onto this node's write store (checkpoint
    /// replication).
    pub const PUT: u64 = 4;
    /// Remove an output file from this node (checkpoint GC).
    pub const UNLINK: u64 = 5;
    /// Fetch files' compressed bytes (whole, a byte range, or a fidelity
    /// prefix) in one round trip: per-entry status and CRC, so one bad
    /// entry fails alone.
    pub const GET_MANY: u64 = 6;
}

/// Most entries a single GET_MANY request may carry; the client chunks
/// larger per-rank groups into several RPCs under the same batch request
/// id.
pub const MAX_BATCH: usize = 128;

/// Reply status bytes.
pub mod status {
    /// Request served.
    pub const OK: u8 = 0;
    /// Path unknown on this node.
    pub const NOT_FOUND: u8 = 1;
    /// Request malformed.
    pub const BAD_REQUEST: u8 = 2;
    /// Entry served as a *partial* frame: only the chunks covering the
    /// requested byte range (or the fidelity tiers up to `min_tier`) of
    /// a chunked object, each with its own stored-CRC.
    pub const PARTIAL: u8 = 4;
    /// This node failed to serve the entry (e.g. its local copy's chunk
    /// table or payload is corrupt). Unlike [`BAD_REQUEST`] this says
    /// nothing about the request itself, so the client treats it as
    /// retryable and walks the replica ring, where an intact copy may
    /// survive.
    pub const ERROR: u8 = 5;
}

/// Byte offset of the body (codec + stat + payload) in a reply entry
/// frame: after the status byte and the CRC32 field.
const GET_BODY: usize = 1 + 4;

/// Encode a PUT request: `[u16 path len][path][u32 owner rank][data]`.
/// The owner rank is recorded in the receiver's metadata so replicated
/// objects keep pointing at their primary.
pub fn encode_put(path: &str, owner: u32, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + path.len() + 4 + data.len());
    put_str16(&mut out, path);
    out.extend_from_slice(&owner.to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// Decode a PUT request into `(path, owner, data)`.
fn decode_put(buf: &[u8]) -> Option<(&str, u32, &[u8])> {
    let mut r = Reader::new(buf);
    Some((r.str16().ok()?, r.u32().ok()?, r.rest()))
}

/// Fixed bytes of a whole or PARTIAL entry frame before anything
/// variable: status, CRC, codec, stat.
const ENTRY_HEADER: usize = GET_BODY + 2 + STAT_SIZE;

/// Append a whole-file entry frame (DESIGN.md §16, row 9), assembled
/// straight into the outgoing reply buffer instead of through a per-entry
/// `Vec`. The CRC covers everything after the CRC field, so a requester
/// can reject in-flight corruption before decompressing — and it is
/// derived, not recomputed: the header's CRC combined with the payload
/// CRC the object has carried since it was loaded. The daemon copies the
/// payload and never walks it; a byte that changed in memory since the
/// load therefore fails the requester's check instead of being hashed
/// into a valid frame.
fn encode_whole_entry(out: &mut Vec<u8>, obj: &LocalObject) {
    out.push(status::OK);
    let mut crc = reserve_crc(out);
    out.extend_from_slice(&obj.codec.0.to_le_bytes());
    obj.stat.encode(out);
    crc.span(out, obj.data.len(), obj.data_crc());
    out.extend_from_slice(&obj.data);
    crc.seal(out);
}

/// Decode an `OK` entry frame (inverse of [`encode_whole_entry`]) in one
/// pass, the CRC check, with the payload borrowed from `buf`.
/// [`Malformed::reply`] turns a mismatch into [`FsError::Corrupt`], which
/// the client's failover ladder treats as retryable on the next replica.
fn decode_whole_entry(buf: &[u8]) -> Result<GetManyItem<'_>, FsError> {
    let parse = || {
        let mut r = Reader::new(buf);
        r.u8()?; // status: the caller dispatched on it
        r.leading_crc(|r, _| {
            Ok(GetManyItem::Whole(CodecId(r.u16()?), FileStat::read(r)?, r.rest()))
        })
    };
    parse().map_err(|e: Malformed| e.reply("GET_MANY entry"))
}

/// Count-field flag every GET_MANY request must carry: it marks the
/// per-entry layout (flags, range and fidelity fields after each path).
/// A request without it is [`status::BAD_REQUEST`].
const GET_MANY_VERSION: u32 = 0x8000_0000;

/// One entry of a GET_MANY request: the path, an optional byte range
/// `[start, end)` and a fidelity bound (`min_tier`;
/// [`crate::pack::TIER_FULL`] means every tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetManySpec<'a> {
    /// File path.
    pub path: &'a str,
    /// Byte range `[start, end)` to serve, or `None` for the whole file.
    pub range: Option<(u64, u64)>,
    /// Highest fidelity tier the requester wants shipped.
    pub min_tier: u8,
}

impl<'a> GetManySpec<'a> {
    /// A whole-file, full-fidelity entry (the plain GET).
    pub fn whole(path: &'a str) -> Self {
        GetManySpec { path, range: None, min_tier: crate::pack::TIER_FULL }
    }

    /// A byte-range entry.
    pub fn range(path: &'a str, start: u64, end: u64) -> Self {
        GetManySpec { path, range: Some((start, end)), min_tier: crate::pack::TIER_FULL }
    }

    /// A fidelity-bounded whole-file entry.
    pub fn tiered(path: &'a str, min_tier: u8) -> Self {
        GetManySpec { path, range: None, min_tier }
    }
}

/// Encode a GET_MANY request (DESIGN.md §16, row 7); flag bit 0 marks an
/// entry with a byte range, bit 1 one with a fidelity bound.
pub fn encode_get_many_request(specs: &[GetManySpec]) -> Vec<u8> {
    // Sized for every optional field, so no entry ever regrows the buffer.
    let body: usize = specs.iter().map(|s| 2 + s.path.len() + 1 + 16 + 1).sum();
    let mut out = Vec::with_capacity(4 + body);
    out.extend_from_slice(&((specs.len() as u32) | GET_MANY_VERSION).to_le_bytes());
    for s in specs {
        put_str16(&mut out, s.path);
        let tiered = s.min_tier != crate::pack::TIER_FULL;
        out.push(u8::from(s.range.is_some()) | u8::from(tiered) << 1);
        if let Some((start, end)) = s.range {
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&end.to_le_bytes());
        }
        if tiered {
            out.push(s.min_tier);
        }
    }
    out
}

/// Decode a GET_MANY request into its entry list. `None` on any framing
/// problem (missing version bit, short buffer, non-UTF-8 path, oversized
/// count, unknown flag bits, trailing bytes).
fn decode_get_many_request(buf: &[u8]) -> Option<Vec<GetManySpec<'_>>> {
    let parse = || -> Result<Vec<GetManySpec<'_>>, Malformed> {
        let mut r = Reader::new(buf);
        let raw = r.u32()?;
        let count = (raw & !GET_MANY_VERSION) as usize;
        if raw & GET_MANY_VERSION == 0 || count > MAX_BATCH {
            return Err(r.fail("missing version bit or oversized batch"));
        }
        let mut specs = Vec::with_capacity(r.fits(count, 2 + 1)?);
        for _ in 0..count {
            let mut spec = GetManySpec::whole(r.str16()?);
            let flags = r.u8()?;
            if flags & !3 != 0 {
                return Err(r.fail("unknown flag bits"));
            }
            if flags & 1 != 0 {
                spec.range = Some((r.u64()?, r.u64()?));
            }
            if flags & 2 != 0 {
                spec.min_tier = r.u8()?;
            }
            specs.push(spec);
        }
        r.finish()?; // trailing garbage: reject rather than silently ignore
        Ok(specs)
    };
    parse().ok()
}

/// One chunk of a PARTIAL entry: its table row plus the stored bytes,
/// borrowed from the reply buffer they arrived in or, when
/// [`LocalObject::plan`] picks the chunk on this node, from the container.
#[derive(Debug, Clone)]
pub struct PartialChunk<'a> {
    /// Chunk index in the file's chunk table.
    pub index: u32,
    /// Fidelity tier (0 for range chunks).
    pub tier: u8,
    /// First raw byte the chunk covers.
    pub offset: u64,
    /// Decoded length of the chunk.
    pub raw_len: u32,
    /// At-rest CRC-32 of the stored bytes (from the chunk table — a
    /// mismatch against `stored` means the *serving node's copy* is
    /// damaged, so the client fails over to a replica).
    pub crc32: u32,
    /// Stored (possibly compressed) chunk bytes.
    pub stored: &'a [u8],
    /// CRC-32 of `stored` as it arrived from a peer, taken in the pass
    /// that checked the entry frame; `None` for bytes borrowed from this
    /// node's object or the read-through copy, which
    /// [`PartialChunk::verified`] hashes itself.
    pub(crate) arrival_crc: Option<u32>,
}

impl<'a> PartialChunk<'a> {
    /// The stored bytes, once their at-rest CRC holds. A mismatch means
    /// the *serving node's copy* is damaged (the outer entry CRC already
    /// ruled out in-flight damage), so the caller should fail over to a
    /// replica. Bytes from a peer are not hashed again: the frame check
    /// already took their CRC.
    pub fn verified(&self) -> Result<&'a [u8], FsError> {
        if self.arrival_crc.unwrap_or_else(|| crc32(self.stored)) != self.crc32 {
            return Err(FsError::Corrupt(format!("chunk {}: at-rest CRC mismatch", self.index)));
        }
        Ok(self.stored)
    }

    /// Verify the chunk's at-rest CRC over all its stored bytes, then
    /// append its first `want` raw bytes (at most `raw_len`) to `out` with
    /// the reply's `inner` codec. `raw_len` sizes the reservation, so the
    /// answer passes [`PartialReply::check_extent`] first. A range read
    /// wants a covering chunk only up to the window's end.
    pub fn decode(&self, inner: CodecId, want: u32, out: &mut Vec<u8>) -> Result<(), FsError> {
        let stored = self.verified()?;
        crate::pack::decode_stored(inner, self.index as usize, stored, self.raw_len, want, out)
    }
}

/// A PARTIAL entry: the chunks covering the requested range (or fidelity
/// prefix) plus the geometry needed to decode and cache them.
#[derive(Debug, Clone)]
pub struct PartialReply<'a> {
    /// Codec the range chunks are compressed with.
    pub inner_codec: CodecId,
    /// File attributes.
    pub stat: FileStat,
    /// Nominal chunk size (0 for progressive containers).
    pub chunk_size: u32,
    /// Total raw file length.
    pub raw_len: u64,
    /// Served chunks, in table order.
    pub chunks: Vec<PartialChunk<'a>>,
}

impl PartialReply<'_> {
    /// Stored bytes of the chunks.
    pub fn stored_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.stored.len()).sum()
    }

    /// Check the answer's geometry against the file's `size`, as the
    /// reader that asked for `kind` chunks knows it: the answer's `raw_len`
    /// must be `size`, and every chunk must be the row its index names in
    /// a `kind` table over the file (`pack::row_fits`: a range chunk sits
    /// at `index × chunk_size`, where the cache will look for it, and is
    /// as long as the tiling says). `raw_len` sizes the decode buffers, and
    /// a frame that lies about it would otherwise size one of up to
    /// 4 GiB; this bounds every buffer by the file. A lie is
    /// [`FsError::Corrupt`].
    pub fn check_extent(&self, kind: ChunkKind, size: u64) -> Result<(), FsError> {
        let fits = |c: &PartialChunk<'_>| {
            let (offset, raw_len, crc32, tier) = (c.offset, c.raw_len, c.crc32, c.tier);
            let row = ChunkMeta { offset, raw_len, stored_len: c.stored.len() as u32, crc32, tier };
            row_fits(kind, self.chunk_size, size, c.index as usize, &row)
        };
        if self.raw_len != size || !self.chunks.iter().all(fits) {
            let (raw_len, chunk_size) = (self.raw_len, self.chunk_size);
            let lie = format!("{raw_len} B in {chunk_size} B chunks do not fit a {size} B file");
            return Err(FsError::Corrupt(lie));
        }
        Ok(())
    }
}

/// One GET_MANY entry: a whole-file frame or a partial frame, its bytes
/// borrowed where they lie. A decoded reply lends them from the reply
/// buffer; [`LocalObject::plan`] answers with the same shape borrowed from
/// a stored object, so every read finishes one type.
#[derive(Debug, Clone)]
pub enum GetManyItem<'a> {
    /// The whole-file entry: codec, stat, compressed payload.
    Whole(CodecId, FileStat, &'a [u8]),
    /// A partial (chunked) entry.
    Partial(PartialReply<'a>),
}

/// Append a PARTIAL entry frame for a chunked object (DESIGN.md §16, row
/// 10). The outer CRC covers everything after the CRC field (in-flight
/// damage fails the entry), and like a whole entry's it is derived, not
/// recomputed: the header bytes are hashed and each chunk enters under the
/// at-rest CRC its chunk-table row carries, so the daemon copies the
/// chunks and never walks them. A chunk whose stored bytes no longer match
/// the CRC taken when it was packed therefore fails the requester's frame
/// check, and the requester fails over to a replica whose copy may be
/// intact. Each chunk also carries that row CRC, for the requester's
/// at-rest check.
fn encode_partial_entry(out: &mut Vec<u8>, p: &PartialReply<'_>) {
    out.push(status::PARTIAL);
    let mut crc = reserve_crc(out);
    out.extend_from_slice(&p.inner_codec.0.to_le_bytes());
    p.stat.encode(out);
    out.extend_from_slice(&p.chunk_size.to_le_bytes());
    out.extend_from_slice(&p.raw_len.to_le_bytes());
    let count = u32::try_from(p.chunks.len()).expect("chunk count fits u32");
    out.extend_from_slice(&count.to_le_bytes());
    for c in &p.chunks {
        out.extend_from_slice(&c.index.to_le_bytes());
        out.push(c.tier);
        out.extend_from_slice(&c.offset.to_le_bytes());
        out.extend_from_slice(&c.raw_len.to_le_bytes());
        out.extend_from_slice(&(c.stored.len() as u32).to_le_bytes());
        out.extend_from_slice(&c.crc32.to_le_bytes());
        crc.span(out, c.stored.len(), c.crc32);
        out.extend_from_slice(c.stored);
    }
    crc.seal(out);
}

/// Fixed bytes of one chunk in a PARTIAL entry, before its stored bytes.
const PARTIAL_CHUNK_HEADER: usize = 4 + 1 + 8 + 4 + 4 + 4;

/// Decode a PARTIAL entry frame (inverse of [`encode_partial_entry`]) in
/// one pass: each chunk's stored bytes are hashed once, as they are
/// reached, and that hash serves both the frame check and, kept as the
/// chunk's arrival CRC, its at-rest check. The chunks borrow `buf`.
fn decode_partial_entry(buf: &[u8]) -> Result<PartialReply<'_>, FsError> {
    let parse = || {
        let mut r = Reader::new(buf);
        r.u8()?; // status: the caller dispatched on it
        r.leading_crc(|r, crc| {
            let inner_codec = CodecId(r.u16()?);
            let stat = FileStat::read(r)?;
            let (chunk_size, raw_len) = (r.u32()?, r.u64()?);
            let count = r.count(PARTIAL_CHUNK_HEADER)?;
            let mut chunks = Vec::with_capacity(count);
            for _ in 0..count {
                let (index, tier, offset, raw_len) = (r.u32()?, r.u8()?, r.u64()?, r.u32()?);
                let (stored_len, crc32) = (r.u32()?, r.u32()?);
                let (stored, arrived) = r.hashed(stored_len as usize, crc)?;
                let arrival_crc = Some(arrived);
                chunks.push(PartialChunk {
                    index,
                    tier,
                    offset,
                    raw_len,
                    crc32,
                    stored,
                    arrival_crc,
                });
            }
            Ok(PartialReply { inner_codec, stat, chunk_size, raw_len, chunks })
        })
    };
    parse().map_err(|e: Malformed| e.reply("PARTIAL entry"))
}

/// Decode a GET_MANY reply (DESIGN.md §16, rows 8–10): `expected` entries
/// in request order, each a whole-file frame, a PARTIAL frame or a bare
/// status byte. Every entry status byte is read here, once. Entries carry
/// their *own* status byte and CRC32 — a byte flipped in flight fails only
/// the entry it landed in, so the caller can fail over per entry instead
/// of refetching the whole batch. Outer-frame damage (or a count mismatch)
/// returns an error for the batch as a whole.
///
/// The entries borrow `buf`: a payload is decoded where it landed, with no
/// copy, and the only pass over its bytes is the frame check (for a
/// PARTIAL chunk, also its at-rest check).
///
/// A [`status::BAD_REQUEST`] entry byte maps to [`FsError::BadRange`] — the
/// daemon judged the requested range malformed for that file, so
/// retrying a replica would not help. A [`status::ERROR`] entry byte maps
/// to [`FsError::Corrupt`]: the serving node's own copy was damaged, so
/// the client fails over to the next replica.
pub fn decode_get_many_reply(
    buf: &[u8],
    expected: usize,
) -> Result<Vec<Result<GetManyItem<'_>, FsError>>, FsError> {
    let mut r = Reader::new(buf);
    match r.u8() {
        Ok(status::OK) => {}
        _ => return Err(FsError::Comm("malformed GET_MANY reply".into())),
    }
    let framing = |e: Malformed| e.reply("GET_MANY reply");
    // Every entry is at least its `u32` length prefix.
    let count = r.count(4).map_err(framing)?;
    if count != expected {
        return Err(FsError::Comm(format!(
            "GET_MANY entry count mismatch: asked {expected}, got {count}"
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let entry = r.bytes32().map_err(framing)?;
        out.push(match entry.first() {
            Some(&status::OK) => decode_whole_entry(entry),
            Some(&status::PARTIAL) => decode_partial_entry(entry).map(GetManyItem::Partial),
            Some(&status::NOT_FOUND) => Err(FsError::NotFound("remote: not found".into())),
            Some(&status::BAD_REQUEST) => {
                Err(FsError::BadRange("rejected by serving daemon".into()))
            }
            Some(&status::ERROR) => {
                Err(FsError::Corrupt("serving daemon's local copy damaged".into()))
            }
            _ => Err(FsError::Comm("malformed GET_MANY entry".into())),
        });
    }
    r.finish().map_err(framing)?;
    Ok(out)
}

/// How one entry of a batch will be answered, decided before the reply
/// buffer exists so that the buffer is allocated once, at its final size:
/// this node's object with its one planner's answer, or the bare status
/// byte that answers instead (not found, a bad range, a damaged local
/// copy). The daemon only encodes it.
type Planned<'a> = Result<(&'a LocalObject, GetManyItem<'a>), u8>;

/// One entry's answer: [`LocalObject::plan`] over what [`find`] returned.
fn plan_entry<'a>(found: &'a Result<LocalObject, u8>, spec: &GetManySpec<'_>) -> Planned<'a> {
    let obj = found.as_ref().map_err(|&byte| byte)?;
    obj.plan(spec).map(|item| (obj, item)).map_err(|e| match e {
        // Only a malformed range is the client's fault; anything else
        // (corrupt local chunk table/payload) must come back retryable
        // so the client walks the replica ring instead of giving up.
        FsError::BadRange(_) => status::BAD_REQUEST,
        _ => status::ERROR,
    })
}

/// Exact length of a planned entry frame, without its `u32` length prefix.
fn frame_len(entry: &Planned) -> usize {
    match entry {
        Ok((_, GetManyItem::Whole(.., data))) => ENTRY_HEADER + data.len(),
        Ok((_, GetManyItem::Partial(p))) => {
            ENTRY_HEADER + 4 + 8 + 4 + p.chunks.len() * PARTIAL_CHUNK_HEADER + p.stored_bytes()
        }
        Err(_) => 1,
    }
}

/// This node's object for one entry, stamped with the rank that served it
/// (failover provenance: differs from `owner_rank` on a replica), or the
/// status byte that answers the entry instead.
fn find(state: &NodeState, path: &str) -> Result<LocalObject, u8> {
    match state.lookup(path) {
        Ok(Some(mut obj)) => {
            state.stats.served_requests.inc();
            obj.stat.served_by = state.rank as u32;
            Ok(obj)
        }
        Ok(None) => Err(status::NOT_FOUND),
        Err(_) => Err(status::ERROR),
    }
}

/// The only read handler: every entry of the batch is answered in place
/// in one reply buffer. The objects are `Arc` clones (at most
/// [`MAX_BATCH`]), so resolving them all first costs no copy and lets the
/// reply be allocated exactly: a 16 x 64 KiB batch sized for its first
/// entry and grown by doubling re-copied about as many bytes as it sent.
fn handle_get_many(state: &NodeState, msg: &Message, get_bytes: &crate::metrics::Counter) -> bool {
    let reply = match decode_get_many_request(&msg.payload) {
        Some(specs) => {
            let found: Vec<_> = specs.iter().map(|s| find(state, s.path)).collect();
            let planned: Vec<_> = found.iter().zip(&specs).map(|(f, s)| plan_entry(f, s)).collect();
            let total = 1 + 4 + planned.iter().map(|p| 4 + frame_len(p)).sum::<usize>();
            let mut out = Vec::with_capacity(total);
            out.push(status::OK);
            out.extend_from_slice(&(specs.len() as u32).to_le_bytes());
            for entry in &planned {
                out.extend_from_slice(&(frame_len(entry) as u32).to_le_bytes());
                match entry {
                    Ok((obj, GetManyItem::Whole(..))) => {
                        get_bytes.add(obj.data.len() as u64);
                        encode_whole_entry(&mut out, obj);
                    }
                    Ok((_, GetManyItem::Partial(p))) => {
                        get_bytes.add(p.stored_bytes() as u64);
                        encode_partial_entry(&mut out, p);
                    }
                    Err(byte) => out.push(*byte),
                }
            }
            debug_assert_eq!(out.len(), total, "reply sized once");
            out
        }
        None => vec![status::BAD_REQUEST],
    };
    msg.reply(reply)
}

/// Run the daemon loop until a SHUTDOWN message arrives or every peer
/// endpoint is gone. Returns the number of requests served.
///
/// Requests are served one at a time in arrival order. With a `trace`
/// recorder, served requests record `daemon.queue` / `daemon.serve`
/// spans. Undeliverable replies (the requester gave up — timed out or
/// died) count in `stats.reply_failures`.
pub fn serve(
    state: Arc<NodeState>,
    mut service: Channel,
    trace: Option<Arc<TraceRecorder>>,
) -> u64 {
    // Resolve instrument handles once; the loop records through Arcs.
    let serve_latency = state.metrics.histogram("daemon.serve.latency_us");
    let queue_wait = state.metrics.histogram("daemon.queue.wait_us");
    let get_bytes = state.metrics.counter("daemon.get.bytes");
    // `(arrival µs, message)`: the arrival stamp turns into the
    // `daemon.queue` wait at dispatch.
    let mut queue: VecDeque<(u64, Message)> = VecDeque::new();
    let mut served = 0u64;
    'daemon: loop {
        // Block only when nothing is queued, then drain every message
        // already waiting, stamping its arrival.
        if queue.is_empty() {
            match service.recv() {
                Ok(m) => queue.push_back((now_us(), m)),
                Err(_) => break, // all peers disconnected
            }
        }
        while let Some(m) = service.try_recv() {
            queue.push_back((now_us(), m));
        }
        let Some((arrival_us, msg)) = queue.pop_front() else { continue };
        // Queue wait: arrival → dispatch.
        if msg.tag != tags::SHUTDOWN {
            let wait = now_us().saturating_sub(arrival_us);
            queue_wait.record_with_exemplar(wait, msg.request_id);
            if let Some(t) = &trace {
                t.record_span(SpanEvent {
                    request: msg.request_id,
                    rank: state.rank as u32,
                    stage: "daemon.queue".to_string(),
                    start_us: arrival_us,
                    dur_us: wait,
                });
            }
        }
        served += 1;
        let start = now_us();
        let shutdown = msg.tag == tags::SHUTDOWN;
        let delivered = match msg.tag {
            tags::SHUTDOWN => msg.reply(vec![status::OK]),
            tags::GET_MANY => handle_get_many(&state, &msg, &get_bytes),
            tags::GET_META => handle_get_meta(&state, &msg),
            tags::PUT_META => {
                let ok = state.merge_meta(&msg.payload).is_ok();
                msg.reply(vec![if ok { status::OK } else { status::BAD_REQUEST }])
            }
            tags::PUT => handle_put(&state, &msg),
            tags::UNLINK => handle_unlink(&state, &msg),
            _ => msg.reply(vec![status::BAD_REQUEST]),
        };
        if !shutdown {
            serve_latency.record_with_exemplar(now_us().saturating_sub(start), msg.request_id);
            // The requester minted the id; stamping it here lets a span
            // tree reassemble the server leg of the request.
            if let Some(t) = &trace {
                t.record_span(SpanEvent {
                    request: msg.request_id,
                    rank: state.rank as u32,
                    stage: "daemon.serve".to_string(),
                    start_us: start,
                    dur_us: now_us().saturating_sub(start),
                });
                // Writes get their own stage so `attrib` can charge write
                // latency separately from read serving.
                if msg.tag == tags::PUT {
                    t.record_span(SpanEvent {
                        request: msg.request_id,
                        rank: state.rank as u32,
                        stage: "daemon.write_serve".to_string(),
                        start_us: start,
                        dur_us: now_us().saturating_sub(start),
                    });
                }
            }
        }
        if !delivered {
            state.stats.reply_failures.inc();
        }
        if shutdown {
            break 'daemon;
        }
    }
    served
}

fn handle_put(state: &NodeState, msg: &Message) -> bool {
    let reply = match decode_put(&msg.payload) {
        // OK only once the write is durable: put_replica lands it in
        // the node's write store before returning, so a commit failure
        // must surface as a rejection, never an ACK.
        Some((path, owner, data)) => match state.put_replica(path, owner, data.to_vec()) {
            Ok(()) => vec![status::OK],
            Err(_) => vec![status::BAD_REQUEST],
        },
        None => vec![status::BAD_REQUEST],
    };
    msg.reply(reply)
}

fn handle_unlink(state: &NodeState, msg: &Message) -> bool {
    let reply = match std::str::from_utf8(&msg.payload) {
        Ok(path) => match state.remove_write(path) {
            Ok(true) => vec![status::OK],
            Ok(false) => vec![status::NOT_FOUND],
            Err(_) => vec![status::BAD_REQUEST], // input files are immutable
        },
        Err(_) => vec![status::BAD_REQUEST],
    };
    msg.reply(reply)
}

fn handle_get_meta(state: &NodeState, msg: &Message) -> bool {
    let reply = match std::str::from_utf8(&msg.payload) {
        Ok(path) => match state.meta.read().get(path) {
            Some(entry) => {
                let mut out = vec![status::OK];
                out.extend_from_slice(&encode_single(path, entry));
                out
            }
            None => vec![status::NOT_FOUND],
        },
        Err(_) => vec![status::BAD_REQUEST],
    };
    msg.reply(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::node::decompress_object_into;
    use crate::prep::{prepare, PrepConfig};
    use fanstore_compress::crc32::crc32;
    use std::time::Duration;

    /// What a row of [`read_protocol_table`] must decode to, whatever
    /// surrounds it in the batch.
    enum Want<'a> {
        /// A whole-file frame decompressing to these bytes.
        Whole(&'a [u8]),
        /// A PARTIAL frame carrying exactly chunks of these tiers; a range
        /// row also names the window of `t/big.bin` they must reproduce.
        Partial(&'a [u8], Option<(usize, usize)>),
        NotFound,
        BadRange,
        /// The serving node's own copy is damaged: retryable `Corrupt`.
        Damaged,
    }

    fn check(item: &Result<GetManyItem, FsError>, want: &Want, big: &[u8]) {
        match (item, want) {
            (Ok(GetManyItem::Whole(codec, stat, data)), Want::Whole(expect)) => {
                assert_eq!(stat.served_by, 0, "daemon stamps the serving rank");
                let mut plain = Vec::new();
                decompress_object_into(*codec, data, stat.size as usize, "row", &mut plain)
                    .unwrap();
                assert_eq!(&plain, expect);
            }
            (Ok(GetManyItem::Partial(p)), Want::Partial(tiers, window)) => {
                assert_eq!(p.stat.served_by, 0);
                let got: Vec<u8> = p.chunks.iter().map(|c| c.tier).collect();
                assert_eq!(got, *tiers, "only the covering chunks / the tier prefix travel");
                let mut raw = Vec::new();
                if let Some((a, b)) = *window {
                    assert_eq!((p.raw_len, p.chunk_size), (big.len() as u64, 4096));
                    for c in &p.chunks {
                        c.decode(p.inner_codec, c.raw_len, &mut raw).unwrap();
                    }
                    let lo = p.chunks[0].offset as usize;
                    assert_eq!(raw[a - lo..b - lo], big[a..b]);
                } else {
                    // The served tier prefix decodes to a usable approximation.
                    let tiers = p.chunks.iter().map(PartialChunk::verified);
                    crate::pack::decode_tiers(tiers, p.raw_len, &mut raw).unwrap();
                    assert_eq!(raw.len() as u64, p.raw_len);
                }
            }
            (Err(FsError::NotFound(_)), Want::NotFound) => {}
            (Err(FsError::BadRange(_)), Want::BadRange) => {}
            (Err(FsError::Corrupt(_)), Want::Damaged) => {}
            (other, _) => panic!("entry decoded to {other:?}"),
        }
    }

    /// `(start, len)` of every entry frame in a GET_MANY reply.
    fn entry_frames(reply: &[u8]) -> Vec<(usize, usize)> {
        let count = u32::from_le_bytes(reply[1..5].try_into().unwrap()) as usize;
        let mut off = 5;
        (0..count)
            .map(|_| {
                let len = u32::from_le_bytes(reply[off..off + 4].try_into().unwrap()) as usize;
                off += 4 + len;
                (off - len, len)
            })
            .collect()
    }

    #[test]
    fn read_protocol_table() {
        // One plain, one range-chunked and one progressive object, each in
        // its own partition (the pack layout is per-`PrepConfig`).
        let plain = b"payload payload payload ".repeat(10);
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let floats: Vec<u8> = (0..2048).flat_map(|i| ((i as f32) * 0.25).to_le_bytes()).collect();
        let pack = |path: &str, data: &[u8], cfg: PrepConfig| {
            prepare(vec![(path.to_string(), data.to_vec())], &cfg).partitions.remove(0)
        };
        let chunked = PrepConfig { chunk_size: 4096, ..Default::default() };
        // A copy whose FCHK chunk table has one flipped byte: the daemon's
        // own copy is damaged; requests for it are fine.
        let mut damaged = pack("t/damaged.bin", &big, chunked.clone());
        let fchk = damaged.windows(4).position(|w| w == b"FCHK").expect("chunked container");
        damaged[fchk + crate::pack::CHUNK_HEADER] ^= 0xFF;
        let parts = [
            pack("t/plain.bin", &plain, PrepConfig::default()),
            pack("t/big.bin", &big, chunked),
            pack("t/model.f32", &floats, PrepConfig { progressive_tiers: 4, ..Default::default() }),
            damaged,
        ];
        let rows = [
            (GetManySpec::whole("t/plain.bin"), Want::Whole(&plain)),
            // A 1000-byte window crossing a chunk boundary: two chunks.
            (
                GetManySpec::range("t/big.bin", 3800, 4800),
                Want::Partial(&[0, 0], Some((3800, 4800))),
            ),
            // Tiers 0..=1 travel, 2..=3 stay home.
            (GetManySpec::tiered("t/model.f32", 1), Want::Partial(&[0, 1], None)),
            (GetManySpec::whole("t/missing"), Want::NotFound),
            (GetManySpec::range("t/big.bin", 100, big.len() as u64 + 1), Want::BadRange),
            // Regression: a damaged local copy must come back as the
            // retryable ERROR so the client walks the replica ring — a
            // BAD_REQUEST would decode to BadRange and abort both the
            // failover and the whole-file fallback.
            (GetManySpec::range("t/damaged.bin", 0, 1000), Want::Damaged),
            // No partial form — neither field set, a fidelity bound on a
            // range container, a byte range of a progressive one: the
            // whole frame ships.
            (GetManySpec::whole("t/big.bin"), Want::Whole(&big)),
            (GetManySpec::tiered("t/big.bin", 0), Want::Whole(&big)),
            (GetManySpec::range("t/model.f32", 10, 100), Want::Whole(&floats)),
        ];
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                for p in &parts {
                    state.load_partition(p).unwrap();
                }
                return serve(state, service, None);
            }
            let mut served = 0u64;
            let mut get_many = |req: Vec<u8>| {
                served += 1;
                service.rpc(0, tags::GET_MANY, req).unwrap()
            };
            // Entry kind x batch size: every rotation of the rows puts each
            // kind alone (a GET is a batch of one; NOT_FOUND alone in a
            // batch), amid two others, and in a full batch.
            for n in [1, 3, MAX_BATCH] {
                for rot in 0..rows.len() {
                    let batch: Vec<_> = (0..n).map(|i| &rows[(i + rot) % rows.len()]).collect();
                    let specs: Vec<GetManySpec> = batch.iter().map(|r| r.0).collect();
                    let req = encode_get_many_request(&specs);
                    assert_eq!(decode_get_many_request(&req).unwrap(), specs, "request roundtrip");
                    let reply = get_many(req);
                    let items = decode_get_many_reply(&reply, n).unwrap();
                    batch.iter().zip(&items).for_each(|(row, item)| check(item, &row.1, &big));
                    // Header/body count mismatch is a batch-level framing
                    // error, not an entry error.
                    assert!(matches!(decode_get_many_reply(&reply, n + 1), Err(FsError::Comm(_))));
                    // One flipped byte — in the stat block or the last
                    // payload byte — fails only the entry it lands in.
                    let frames = entry_frames(&reply);
                    for j in [0, n / 2, n - 1] {
                        let (start, len) = frames[j];
                        if len <= GET_BODY {
                            continue; // status-only entry: nothing under a CRC
                        }
                        for at in [start + GET_BODY + 10, start + len - 1] {
                            let mut bad = reply.clone();
                            bad[at] ^= 0x40;
                            let got = decode_get_many_reply(&bad, n).unwrap();
                            assert!(matches!(got[j], Err(FsError::Corrupt(_))), "{:?}", got[j]);
                            for (i, (row, item)) in batch.iter().zip(&got).enumerate() {
                                if i != j {
                                    check(item, &row.1, &big);
                                }
                            }
                        }
                    }
                }
            }
            // Malformed requests are BAD_REQUEST for the whole batch, never
            // a crash and never a partial answer.
            let specs: Vec<GetManySpec> = rows[..3].iter().map(|r| r.0).collect();
            let good = encode_get_many_request(&specs);
            let mut trailing = good.clone();
            trailing.push(0);
            let mut no_version = good.clone();
            no_version[3] &= 0x7F;
            let mut unknown_flag = good.clone();
            unknown_flag[4 + 2 + "t/plain.bin".len()] |= 0x80;
            let mut non_utf8 = encode_get_many_request(&[GetManySpec::whole("ab")]);
            non_utf8[4 + 2] = 0xFF;
            let oversized = ((MAX_BATCH as u32 + 1) | GET_MANY_VERSION).to_le_bytes().to_vec();
            for (what, req) in [
                ("trailing garbage", trailing),
                ("missing version bit", no_version),
                ("unknown flag bits", unknown_flag),
                ("truncated tier field", good[..good.len() - 1].to_vec()),
                ("short count field", vec![1, 0, 0]),
                ("count > MAX_BATCH", oversized),
                ("non-UTF-8 path", non_utf8),
            ] {
                assert!(decode_get_many_request(&req).is_none(), "{what}");
                assert_eq!(get_many(req), vec![status::BAD_REQUEST], "{what}");
            }
            // An empty or truncated entry frame is an error, never a panic.
            assert!(
                decode_whole_entry(&[]).is_err() && decode_whole_entry(&[status::OK, 1]).is_err()
            );
            // The empty path is a legal (if unknown) path, not a framing error.
            let empty = encode_get_many_request(&[GetManySpec::whole("")]);
            let reply = get_many(empty);
            let items = decode_get_many_reply(&reply, 1).unwrap();
            assert!(matches!(items[0], Err(FsError::NotFound(_))));
            assert_eq!(service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap()[0], status::OK);
            served + 1
        });
        assert_eq!(results[0], results[1], "daemon served every request");
    }

    #[test]
    fn requests_waiting_at_start_are_served_in_send_order() {
        // Rank 1 posts four GET_MANY rpcs before rank 0's loop starts. Each
        // gives up at once (a zero timeout), so one thread sends all four
        // in a known order. The loop drains them into its one FIFO and
        // answers them in send order (each answer is undeliverable, and
        // counted), with one queue-wait sample each; SHUTDOWN is not
        // sampled.
        const N: u64 = 4;
        let results = mpi_sim::launch(2, 2, |mut ctx| {
            let (mut control, service) = (ctx.take_channel(0), ctx.take_channel(1));
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                let trace = Arc::new(TraceRecorder::new(64));
                control.barrier().unwrap();
                serve(Arc::clone(&state), service, Some(Arc::clone(&trace)));
                let spans = trace.spans();
                let served = spans.iter().filter(|s| s.stage == "daemon.serve");
                let waits = state.metrics.histogram("daemon.queue.wait_us").count();
                return (
                    served.map(|s| s.request).collect(),
                    waits,
                    state.stats.reply_failures.get(),
                );
            }
            for id in 1..=N {
                let req = encode_get_many_request(&[GetManySpec::whole("q/missing")]);
                let gave_up = service.rpc_with_id(0, tags::GET_MANY, req, Some(Duration::ZERO), id);
                assert_eq!(gave_up, Err(mpi_sim::CommError::Timeout));
            }
            control.barrier().unwrap();
            service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
            (Vec::new(), 0, 0)
        });
        assert_eq!(results[0], ((1..=N).collect::<Vec<u64>>(), N, N));
    }

    #[test]
    fn entry_crcs_are_combined_from_the_load_time_and_chunk_table_crcs() {
        // Whole objects of three sizes, then a range-chunked and a
        // progressive container, each with the spec that makes it a PARTIAL
        // frame whose last chunk holds the container's last byte.
        let ramp = |len: usize| (0..len).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>();
        let floats: Vec<u8> = (0..4096).flat_map(|i| ((i as f32) * 0.37).to_le_bytes()).collect();
        let packed = |data: &[u8], cfg: PrepConfig| {
            let part = prepare(vec![("f".to_string(), data.to_vec())], &cfg).partitions.remove(0);
            let e = crate::pack::parse_partition(&part).unwrap().remove(0);
            LocalObject::new(e.codec, e.stat, Arc::new(e.data))
        };
        let whole = |len: usize| {
            let stat = FileStat::regular(7, len as u64);
            (LocalObject::new(CodecId(0), stat, Arc::new(ramp(len))), GetManySpec::whole("f"))
        };
        let inputs = [
            whole(0),
            whole(1),
            whole(1 << 20),
            (
                packed(&ramp(50_000), PrepConfig { chunk_size: 4096, ..Default::default() }),
                GetManySpec::range("f", 40_000, 50_000),
            ),
            (
                packed(&floats, PrepConfig { progressive_tiers: 4, ..Default::default() }),
                GetManySpec::tiered("f", 3),
            ),
        ];
        let encode = |obj: &LocalObject, spec: &GetManySpec| {
            let planned = Ok((obj, obj.plan(spec).unwrap()));
            let mut frame = Vec::new();
            match &planned {
                Ok((_, GetManyItem::Whole(..))) => encode_whole_entry(&mut frame, obj),
                Ok((_, GetManyItem::Partial(p))) => encode_partial_entry(&mut frame, p),
                Err(_) => unreachable!("planned above"),
            }
            assert_eq!(frame.len(), frame_len(&planned), "the frame is sized before it is written");
            frame
        };
        // The entry as a one-entry reply, through the one status dispatch.
        let decode = |frame: &[u8], check: &dyn Fn(Result<GetManyItem, FsError>)| {
            let mut reply = vec![status::OK];
            reply.extend_from_slice(&1u32.to_le_bytes());
            reply.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            reply.extend_from_slice(frame);
            check(decode_get_many_reply(&reply, 1).unwrap().remove(0));
        };
        for (obj, spec) in &inputs {
            let what = format!("{} B, {spec:?}", obj.data.len());
            let frame = encode(obj, spec);
            // The derived CRC is the CRC of the body as sent.
            assert_eq!(frame[1..GET_BODY], crc32(&frame[GET_BODY..]).to_le_bytes(), "{what}");
            decode(&frame, &|got| match (got, obj.plan(spec).unwrap()) {
                (Ok(GetManyItem::Whole(_, _, got)), GetManyItem::Whole(_, _, sent)) => {
                    assert_eq!(got, sent, "{what}")
                }
                (Ok(GetManyItem::Partial(got)), GetManyItem::Partial(sent)) => {
                    assert!(got.chunks.len() > 1, "{what}: a PARTIAL frame of several chunks");
                    for (g, s) in got.chunks.iter().zip(&sent.chunks) {
                        assert_eq!((g.index, g.stored), (s.index, s.stored), "{what}");
                        assert_eq!(g.verified().unwrap(), s.stored, "{what}");
                    }
                }
                (other, _) => panic!("{what}: {other:?}"),
            });
            // Bytes that changed after the object was loaded, or after the
            // chunk was packed, are sent under the CRC taken then: the
            // requester rejects the frame, where a per-request hash would
            // have blessed it.
            if let Some(&last) = obj.data.last() {
                let mut stale = obj.clone();
                let mut flipped = (*obj.data).clone();
                *flipped.last_mut().unwrap() = last ^ 0x04;
                stale.data = Arc::new(flipped);
                decode(&encode(&stale, spec), &|got| {
                    assert!(matches!(got, Err(FsError::Corrupt(_))), "{what}: {got:?}")
                });
            }
        }
    }

    #[test]
    fn partial_entry_rejects_trailing_bytes_and_corrupt_geometry() {
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 239) as u8).collect();
        let packed = prepare(
            vec![("t/file.bin".to_string(), body)],
            &PrepConfig { chunk_size: 2048, ..PrepConfig::default() },
        );
        let state = NodeState::new(0, 1, CacheConfig::default());
        state.load_partition(&packed.partitions[0]).unwrap();
        let obj = state.lookup("t/file.bin").unwrap().unwrap();
        let spec = GetManySpec::range("t/file.bin", 0, 5000);
        let planned = Ok((&obj, obj.plan(&spec).unwrap()));
        let Ok((_, GetManyItem::Partial(plan))) = &planned else {
            panic!("a range of a range container")
        };
        let mut entry = Vec::new();
        encode_partial_entry(&mut entry, plan);
        assert_eq!(entry.len(), frame_len(&planned), "the frame is sized before it is written");
        assert!(decode_partial_entry(&entry).is_ok());
        let fix_crc = |frame: &mut Vec<u8>| {
            let crc = crc32(&frame[GET_BODY..]);
            frame[1..GET_BODY].copy_from_slice(&crc.to_le_bytes());
        };
        // Trailing bytes with a fixed-up outer CRC are rejected by the
        // consumed-length check, never silently ignored.
        let mut padded = entry.clone();
        padded.push(0xAA);
        fix_crc(&mut padded);
        assert!(matches!(decode_partial_entry(&padded), Err(FsError::Comm(_))));
        // A peer's frame is untrusted: a first chunk claiming offset
        // u64::MAX - 1 under a *correct* outer CRC decodes (the client's
        // `assemble` then rejects it as Corrupt instead of overflowing).
        let mut crafted = entry.clone();
        let at = GET_BODY + 2 + STAT_SIZE + 4 + 8 + 4 + 4 + 1; // [idx u32][tier u8][offset u64]
        crafted[at..at + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        fix_crc(&mut crafted);
        let p = decode_partial_entry(&crafted).expect("outer CRC is correct");
        assert_eq!(p.chunks[0].offset, u64::MAX - 1);
        // A damaged chunk table fails planning as Corrupt — the daemon's
        // copy is bad, not the request — so handle_get_many can answer
        // the retryable status::ERROR instead of BAD_REQUEST. Same for a
        // table that passes its CRC but whose geometry overflows: raw_len
        // u64::MAX keeps the huge range in bounds, chunk 1 sits at offset
        // u64::MAX - 1.
        let mut flipped = (*obj.data).clone();
        flipped[crate::pack::CHUNK_HEADER] ^= 0xFF;
        let mut overflow = (*obj.data).clone();
        overflow[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let row1 = crate::pack::CHUNK_HEADER + crate::pack::CHUNK_ROW;
        overflow[row1..row1 + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        let table_end = crate::pack::CHUNK_HEADER + 5 * crate::pack::CHUNK_ROW;
        let crc = crc32(&overflow[..table_end]);
        overflow[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        for (raw, end) in [(flipped, 5000), (overflow, u64::MAX)] {
            let bad = LocalObject::new(obj.codec, obj.stat, Arc::new(raw));
            let spec = GetManySpec::range("t/file.bin", 0, end);
            let got = bad.plan(&spec).map(|plan| matches!(plan, GetManyItem::Partial(_)));
            assert!(matches!(got, Err(FsError::Corrupt(_))), "{got:?}");
        }
    }

    #[test]
    fn bad_request_paths_reply_bad_request() {
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                serve(state, service, None)
            } else {
                // Tag 1 is unassigned (every read is a GET_MANY, tag 6).
                let r = service.rpc(0, 1, b"d/file.bin".to_vec()).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                // GET_META with a non-UTF-8 path.
                let r = service.rpc(0, tags::GET_META, vec![0x80]).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                // GET_META for an unknown path.
                let r = service.rpc(0, tags::GET_META, b"nope".to_vec()).unwrap();
                assert_eq!(r, vec![status::NOT_FOUND]);
                // PUT_META with garbage metadata.
                let r = service.rpc(0, tags::PUT_META, vec![9; 3]).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                // Unknown tag.
                let r = service.rpc(0, 777, Vec::new()).unwrap();
                assert_eq!(r, vec![status::BAD_REQUEST]);
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                6
            }
        });
        assert_eq!(results[0], 6, "daemon stayed up through every bad request");
    }

    #[test]
    fn undeliverable_reply_counted() {
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                let trace = Some(Arc::new(crate::trace::TraceRecorder::new(8)));
                let served = serve(Arc::clone(&state), service, trace);
                (served, state.stats.reply_failures.get())
            } else {
                // A bare send carries no reply conduit: the daemon's
                // answer is undeliverable and must be counted, not lost
                // silently.
                let req = encode_get_many_request(&[GetManySpec::whole("whatever")]);
                service.send(0, tags::GET_MANY, req).unwrap();
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                (0, 0)
            }
        });
        assert_eq!(results[0], (2, 1));
    }

    #[test]
    fn put_then_unlink_roundtrip() {
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                let st = Arc::clone(&state);
                let served = serve(st, service, None);
                let still_there = state.lookup("ckpt/seg0").unwrap().is_some();
                (served, still_there)
            } else {
                let buf = encode_put("ckpt/seg0", 1, &[0xAB; 128]);
                let ok = service.rpc(0, tags::PUT, buf).unwrap();
                assert_eq!(ok[0], status::OK);
                // The replica now serves GETs for the pushed object.
                let req = encode_get_many_request(&[GetManySpec::whole("ckpt/seg0")]);
                let reply = service.rpc(0, tags::GET_MANY, req).unwrap();
                let (codec, stat, data) = match decode_get_many_reply(&reply, 1).unwrap().remove(0)
                {
                    Ok(GetManyItem::Whole(codec, stat, data)) => (codec, stat, data),
                    other => panic!("expected a whole entry, got {other:?}"),
                };
                assert_eq!(stat.owner_rank, 1, "owner stays the pusher");
                let mut plain = Vec::new();
                decompress_object_into(codec, data, stat.size as usize, "ckpt/seg0", &mut plain)
                    .unwrap();
                assert_eq!(plain, vec![0xABu8; 128]);
                // Unlink removes it; a second unlink reports NOT_FOUND.
                let r = service.rpc(0, tags::UNLINK, b"ckpt/seg0".to_vec()).unwrap();
                assert_eq!(r[0], status::OK);
                let r = service.rpc(0, tags::UNLINK, b"ckpt/seg0".to_vec()).unwrap();
                assert_eq!(r[0], status::NOT_FOUND);
                // Truncated PUT payloads are rejected, not panicked on.
                let r = service.rpc(0, tags::PUT, vec![0xFF, 0xFF, 0x01]).unwrap();
                assert_eq!(r[0], status::BAD_REQUEST);
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                (0, false)
            }
        });
        assert_eq!(results[0], (6, false), "object gone after unlink");
    }

    #[test]
    fn put_meta_insertion() {
        let results = mpi_sim::launch(2, 1, |mut ctx| {
            let service = ctx.take_channel(0);
            if ctx.rank == 0 {
                let state = Arc::new(NodeState::new(0, 2, CacheConfig::default()));
                let st = Arc::clone(&state);
                let served = serve(st, service, None);
                let size = state.meta.read().stat("out/model_epoch3.h5").map(|s| s.size);
                (served, size)
            } else {
                let entry = crate::meta::MetaEntry {
                    stat: {
                        let mut s = FileStat::regular(0, 4242);
                        s.owner_rank = 1;
                        s
                    },
                    codec: CodecId(0),
                };
                let buf = encode_single("out/model_epoch3.h5", &entry);
                let ok = service.rpc(0, tags::PUT_META, buf).unwrap();
                assert_eq!(ok[0], status::OK);
                service.rpc(0, tags::SHUTDOWN, Vec::new()).unwrap();
                (0, None)
            }
        });
        assert_eq!(results[0], (2, Some(4242)));
    }
}
