//! Per-node FanStore state: the local compressed object store, the
//! replicated metadata view, the decompressed cache and the write store.
//!
//! This is the state shared between a node's daemon thread (serving remote
//! requests) and its training I/O threads (the `FsClient`s).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fanstore_compress::crc32::crc32;
use fanstore_compress::registry::create;
use fanstore_compress::CodecId;
use parking_lot::RwLock;

use crate::backend::{Backend, RamBackend};
use crate::bufpool::BufPool;
use crate::cache::{CacheConfig, FileCache};
use crate::meta::{MetaEntry, MetaTable};
use crate::metrics::{now_us, Counter, Gauge, MetricsRegistry};
use crate::pack::parse_partition;
use crate::stat::FileStat;
use crate::FsError;

/// One compressed object in the node-local backend (RAM in this
/// reproduction; the paper also supports local SSD as the backend).
///
/// The payload is immutable once stored, so its CRC-32 is computed once,
/// by [`LocalObject::new`], and the daemon seals every whole-entry reply
/// from it instead of walking the payload per request
/// (`framing::seal_leading_with_tail`).
#[derive(Clone)]
pub struct LocalObject {
    /// Codec of `data`.
    pub codec: CodecId,
    /// Attributes; `stat.size` is the uncompressed length.
    pub stat: FileStat,
    /// Compressed payload. Swapping it for other bytes leaves the CRC of
    /// the bytes that were loaded in place: the object then serves frames
    /// every requester rejects as corrupt, which is how the read-ladder
    /// test models a bit flipped in memory after load.
    pub data: Arc<Vec<u8>>,
    data_crc: u32,
}

impl LocalObject {
    /// Wrap a stored payload, checksumming it once.
    pub fn new(codec: CodecId, stat: FileStat, data: Arc<Vec<u8>>) -> Self {
        let data_crc = crc32(&data);
        LocalObject { codec, stat, data, data_crc }
    }

    /// The object over a payload read back from the medium it was stored
    /// on, under the CRC taken when it was stored: no second pass over the
    /// bytes, and damage on the medium is the requester's to detect.
    pub(crate) fn reread(
        codec: CodecId,
        stat: FileStat,
        data: Arc<Vec<u8>>,
        data_crc: u32,
    ) -> Self {
        LocalObject { codec, stat, data, data_crc }
    }

    /// CRC-32 of `data` as it was when the object was created.
    pub fn data_crc(&self) -> u32 {
        self.data_crc
    }
}

/// Counters for the node's I/O activity.
///
/// Every field is a handle into the node's [`MetricsRegistry`] — the
/// registry is the single source of truth; `NodeStats` is the typed,
/// cheap-to-reach view the hot paths and the chaos tests use. The
/// registered metric names are listed next to each field.
#[derive(Debug)]
pub struct NodeStats {
    /// Files opened and served from the local backend
    /// (`client.local.opens`).
    pub local_opens: Arc<Counter>,
    /// Files fetched from a remote daemon (`client.remote.opens`).
    pub remote_opens: Arc<Counter>,
    /// Compressed bytes pulled over the interconnect
    /// (`client.remote.bytes`).
    pub remote_bytes: Arc<Counter>,
    /// Remote requests served by this node's daemon
    /// (`daemon.served.requests`).
    pub served_requests: Arc<Counter>,
    /// Output files finalised on this node (`client.files.written`).
    pub files_written: Arc<Counter>,
    /// Reads that needed any recovery beyond the first attempt at the
    /// primary owner: a replica retry, a backoff-and-retry, or the
    /// read-through fallback (`client.degraded.reads`).
    pub degraded_reads: Arc<Counter>,
    /// GET replies rejected because their CRC32 did not verify
    /// (`client.crc.failures`).
    pub crc_failures: Arc<Counter>,
    /// RPCs that hit the configured deadline (or found the peer dead)
    /// (`fabric.rpc.timeouts`).
    pub rpc_timeouts: Arc<Counter>,
    /// Reads ultimately served by the read-through backend (the "shared
    /// file system" escape hatch) after every replica failed
    /// (`client.read_through.reads`).
    pub read_through_reads: Arc<Counter>,
    /// Daemon replies that could not be delivered (requester gone)
    /// (`daemon.reply.failures`).
    pub reply_failures: Arc<Counter>,
    /// Write-metadata forwards abandoned because the metadata owner was
    /// unreachable (the write stays readable from this node)
    /// (`client.meta_forward.failures`).
    pub meta_forward_failures: Arc<Counter>,
    /// Operations rejected by the tenant's token bucket after the
    /// admission backoff retries (`client.throttled.ops`).
    pub throttled_ops: Arc<Counter>,
    /// SHED replies received from daemons — the server dropped the
    /// request rather than serve it past its deadline
    /// (`client.shed.replies`).
    pub shed_replies: Arc<Counter>,
    /// Remote fetches that exhausted the per-op retry budget before any
    /// replica answered (`client.retry.exhausted`).
    pub retry_exhausted: Arc<Counter>,
    /// Requests this node's daemon shed — expired deadline, uncoverable
    /// service estimate, or a full tenant queue (`daemon.shed.requests`).
    pub daemon_shed: Arc<Counter>,
    /// Writes landed in this node's write store — finalised outputs and
    /// replica pushes alike (`daemon.write.count`).
    pub write_count: Arc<Counter>,
    /// Uncompressed bytes those writes carried (`daemon.write.bytes`).
    pub write_bytes: Arc<Counter>,
    /// Writes that replaced an existing write-store entry — replication
    /// retries and checkpoint re-pushes (`daemon.write.overwrites`).
    pub write_overwrites: Arc<Counter>,
    /// Plain bytes produced by decode on this node, across every codec
    /// (`client.decompress.bytes`).
    pub decompress_bytes: Arc<Counter>,
    /// Throughput of the most recent decode, in MB/s
    /// (`client.decompress.mb_per_s`). Bytes-per-microsecond equals
    /// megabytes-per-second, so this is `len / elapsed_us`.
    pub decompress_mb_per_s: Arc<Gauge>,
}

impl NodeStats {
    /// Build the stat set on `registry` — one counter per field, under
    /// the stable names listed on the fields.
    pub fn register(registry: &MetricsRegistry) -> Self {
        NodeStats {
            local_opens: registry.counter("client.local.opens"),
            remote_opens: registry.counter("client.remote.opens"),
            remote_bytes: registry.counter("client.remote.bytes"),
            served_requests: registry.counter("daemon.served.requests"),
            files_written: registry.counter("client.files.written"),
            degraded_reads: registry.counter("client.degraded.reads"),
            crc_failures: registry.counter("client.crc.failures"),
            rpc_timeouts: registry.counter("fabric.rpc.timeouts"),
            read_through_reads: registry.counter("client.read_through.reads"),
            reply_failures: registry.counter("daemon.reply.failures"),
            meta_forward_failures: registry.counter("client.meta_forward.failures"),
            throttled_ops: registry.counter("client.throttled.ops"),
            shed_replies: registry.counter("client.shed.replies"),
            retry_exhausted: registry.counter("client.retry.exhausted"),
            daemon_shed: registry.counter("daemon.shed.requests"),
            write_count: registry.counter("daemon.write.count"),
            write_bytes: registry.counter("daemon.write.bytes"),
            write_overwrites: registry.counter("daemon.write.overwrites"),
            decompress_bytes: registry.counter("client.decompress.bytes"),
            decompress_mb_per_s: registry.gauge("client.decompress.mb_per_s"),
        }
    }

    /// Total degraded-mode events: the single number chaos tests assert
    /// on (deterministic for a seeded fault plan).
    pub fn degraded_total(&self) -> u64 {
        self.degraded_reads.get() + self.meta_forward_failures.get()
    }
}

/// Shared per-node state.
pub struct NodeState {
    /// This node's rank.
    pub rank: usize,
    /// Number of nodes.
    pub size: usize,
    /// Replicated global metadata (input files + forwarded write metadata).
    pub meta: RwLock<MetaTable>,
    /// Local compressed objects, keyed by path (RAM or local-disk backend,
    /// §IV-C1).
    pub local: Box<dyn Backend>,
    /// Decompressed-file cache.
    pub cache: FileCache,
    /// Output files finalised on this node (write-once store), kept
    /// uncompressed.
    pub writes: RwLock<HashMap<String, Arc<Vec<u8>>>>,
    /// The durable write path, when configured: every write-store
    /// mutation lands in the WAL before it is acknowledged, and reads
    /// fall back to the WAL's memtable + segments — which is what makes
    /// writes survive a daemon restart (see [`crate::wal`]).
    pub wal: Option<Arc<crate::wal::WalStore>>,
    /// This node's metric instruments (histograms, counters, gauges).
    pub metrics: Arc<MetricsRegistry>,
    /// Activity counters (handles into `metrics`).
    pub stats: NodeStats,
    /// Scratch-buffer pool for the decode hot path: decode buffers come
    /// from here and flow back on cache eviction or explicit recycle.
    pub pool: Arc<BufPool>,
    /// Request-id sequence for this node's clients (see
    /// [`NodeState::next_request_id`]).
    next_request: AtomicU64,
}

impl NodeState {
    /// Fresh state for `rank` of `size` with the default RAM backend.
    pub fn new(rank: usize, size: usize, cache_cfg: CacheConfig) -> Self {
        Self::with_backend(rank, size, cache_cfg, Box::new(RamBackend::new()))
    }

    /// Fresh state with an explicit storage backend.
    pub fn with_backend(
        rank: usize,
        size: usize,
        cache_cfg: CacheConfig,
        backend: Box<dyn Backend>,
    ) -> Self {
        Self::with_metrics(rank, size, cache_cfg, backend, Arc::new(MetricsRegistry::new()))
    }

    /// Fresh state with an explicit backend and metrics registry (pass a
    /// [`MetricsRegistry::disabled`] registry to run metrics-free).
    pub fn with_metrics(
        rank: usize,
        size: usize,
        cache_cfg: CacheConfig,
        backend: Box<dyn Backend>,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let stats = NodeStats::register(&metrics);
        let pool = Arc::new(BufPool::default());
        NodeState {
            rank,
            size,
            meta: RwLock::new(MetaTable::new()),
            local: backend,
            cache: FileCache::with_recycle(cache_cfg, Arc::clone(&pool)),
            writes: RwLock::new(HashMap::new()),
            wal: None,
            metrics,
            stats,
            pool,
            next_request: AtomicU64::new(0),
        }
    }

    /// Attach a durable write path. Call before the state is shared;
    /// recovered WAL entries become readable immediately (the write
    /// store map starts empty after a restart, so reads fall through to
    /// the WAL's memtable and segments).
    pub fn attach_wal(&mut self, wal: Arc<crate::wal::WalStore>) {
        self.wal = Some(wal);
    }

    /// Mint a cluster-unique request id for one client operation:
    /// `(rank + 1) << 48 | sequence`. Never 0 — 0 in a message envelope
    /// means "not part of a traced request".
    pub fn next_request_id(&self) -> u64 {
        let seq = self.next_request.fetch_add(1, Ordering::Relaxed);
        ((self.rank as u64 + 1) << 48) | (seq & 0xFFFF_FFFF_FFFF)
    }

    /// Load one packed partition into the local backend and the local
    /// metadata table (§IV-C1). `owned` marks partitions assigned to this
    /// rank (their entries keep their recorded owner); replicas loaded for
    /// locality keep the original owner rank in metadata so other nodes
    /// still address the assigned owner.
    pub fn load_partition(&self, partition: &[u8]) -> Result<usize, FsError> {
        let entries = parse_partition(partition)?;
        let count = entries.len();
        let mut meta = self.meta.write();
        for e in entries {
            meta.insert(&e.path, MetaEntry { stat: e.stat, codec: e.codec });
            self.local.put(&e.path, LocalObject::new(e.codec, e.stat, Arc::new(e.data)))?;
        }
        Ok(count)
    }

    /// Serialise the metadata of the objects this node holds, for the
    /// startup allgather.
    pub fn encode_local_meta(&self) -> Vec<u8> {
        // The local meta table at load time holds exactly the local
        // objects' entries.
        self.meta.read().encode()
    }

    /// Merge another node's metadata (from the allgather).
    pub fn merge_meta(&self, buf: &[u8]) -> Result<usize, FsError> {
        self.meta.write().merge_encoded(buf)
    }

    /// Decompress a local object into a fresh buffer.
    fn decompress(&self, obj: &LocalObject, path: &str) -> Result<Vec<u8>, FsError> {
        self.decompress_timed(obj.codec, &obj.data, obj.stat.size as usize, path)
    }

    /// Pool-backed [`decompress_object`] plus decode metrics: per-codec
    /// (`codec.<name>.decode_us`, `codec.<name>.decode_bytes`) and
    /// node-wide (`client.decompress.bytes`, `client.decompress.mb_per_s`).
    ///
    /// The output buffer comes from [`NodeState::pool`]; in a warm steady
    /// state this call performs no allocation. The buffer flows back to
    /// the pool via cache eviction ([`crate::cache::FileCache`] recycling)
    /// or [`crate::client::FsClient::recycle`].
    pub fn decompress_timed(
        &self,
        codec: CodecId,
        data: &[u8],
        expected_len: usize,
        path: &str,
    ) -> Result<Vec<u8>, FsError> {
        let timed = self.metrics.is_enabled();
        let start = if timed { now_us() } else { 0 };
        let mut out = self.pool.take(expected_len);
        if let Err(e) = decompress_object_into(codec, data, expected_len, path, &mut out) {
            self.pool.put(out);
            return Err(e);
        }
        if timed {
            let elapsed = now_us() - start;
            let name = if codec == crate::pack::CHUNKED {
                "chunked"
            } else {
                codec.family().map_or("unknown", |f| f.name())
            };
            self.metrics.histogram(&format!("codec.{name}.decode_us")).record(elapsed);
            self.metrics.counter(&format!("codec.{name}.decode_bytes")).add(out.len() as u64);
            self.stats.decompress_bytes.add(out.len() as u64);
            // bytes/us == MB/s: both scale factors are 10^6.
            self.stats.decompress_mb_per_s.set(out.len() as u64 / elapsed.max(1));
        }
        Ok(out)
    }

    /// Open for reading, local paths only (Fig 2 local branch): cache
    /// first, then the local backend. Returns `None` when the compressed
    /// bytes are not on this node.
    pub fn open_local(&self, path: &str) -> Result<Option<Arc<Vec<u8>>>, FsError> {
        if let Some(hit) = self.cache.open(path) {
            self.stats.local_opens.inc();
            return Ok(Some(hit));
        }
        // Output files written on this node are readable locally (e.g. a
        // checkpoint re-read after resume).
        if let Some(w) = self.writes.read().get(path) {
            self.stats.local_opens.inc();
            return Ok(Some(self.cache.insert(path, Arc::clone(w))));
        }
        // Writes recovered by WAL replay after a restart live in the
        // WAL's memtable/segments but not the write-store map.
        if let Some(wal) = &self.wal {
            match wal.get(path)? {
                crate::wal::Lookup::Hit(v) => {
                    self.stats.local_opens.inc();
                    return Ok(Some(self.cache.insert(path, v)));
                }
                crate::wal::Lookup::Tombstone => return Ok(None),
                crate::wal::Lookup::Miss => {}
            }
        }
        let obj = match self.local.get(path) {
            Some(o) => o,
            None => return Ok(None),
        };
        let plain = Arc::new(self.decompress(&obj, path)?);
        self.stats.local_opens.inc();
        Ok(Some(self.cache.insert(path, plain)))
    }

    /// The compressed local object for `path` *without* decompressing or
    /// touching the cache — the batched read path hands these to I/O
    /// workers so decompression runs in parallel instead of inline.
    pub fn local_packed(&self, path: &str) -> Option<LocalObject> {
        self.local.get(path)
    }

    /// Decode only the chunks of a *local* range-chunked object covering
    /// raw bytes `[start, end)`. Returns `Ok(None)` when the path is not
    /// local or not range-chunked (the caller falls back to a whole-file
    /// or remote read). Each piece carries its chunk index and raw offset
    /// so callers can install partial cache residency.
    pub fn read_local_chunks(
        &self,
        path: &str,
        start: u64,
        end: u64,
    ) -> Result<Option<RangePieces>, FsError> {
        let obj = match self.local.get(path) {
            Some(o) if o.codec == crate::pack::CHUNKED => o,
            _ => return Ok(None),
        };
        let table = crate::pack::parse_chunk_table(&obj.data)
            .map_err(|e| FsError::Corrupt(format!("{path}: {e}")))?;
        if table.kind != crate::pack::ChunkKind::Range {
            return Ok(None);
        }
        let mut chunks = Vec::new();
        let covering =
            table.covering(start, end).map_err(|e| FsError::Corrupt(format!("{path}: {e}")))?;
        for idx in covering {
            let payload = crate::pack::chunk_payload(&obj.data, &table, idx)
                .map_err(|e| FsError::Corrupt(format!("{path}: {e}")))?;
            let raw = crate::pack::decode_chunk(&table, idx, payload)
                .map_err(|e| FsError::Corrupt(format!("{path}: {e}")))?;
            chunks.push(RangeChunk {
                index: idx as u32,
                offset: table.chunks[idx].offset,
                data: Arc::new(raw),
            });
        }
        self.stats.local_opens.inc();
        Ok(Some(RangePieces { chunk_size: table.chunk_size, total_len: table.raw_len, chunks }))
    }

    /// Decode a *local* progressive object at reduced fidelity (tiers
    /// `<= min_tier` only). `Ok(None)` when the path is not local; a
    /// non-progressive local object decodes at full fidelity.
    pub fn read_local_tiered(&self, path: &str, min_tier: u8) -> Result<Option<Vec<u8>>, FsError> {
        let obj = match self.local.get(path) {
            Some(o) => o,
            None => return Ok(None),
        };
        self.stats.local_opens.inc();
        if obj.codec == crate::pack::CHUNKED {
            crate::pack::decode_progressive_prefix(&obj.data, min_tier)
                .map(Some)
                .map_err(|e| FsError::Corrupt(format!("{path}: {e}")))
        } else {
            self.decompress(&obj, path).map(Some)
        }
    }

    /// The rank holding a path's compressed bytes, from metadata.
    ///
    /// Data preparation records the *partition index* in `owner_rank`
    /// (the cluster size is unknown at prep time); at load, partition
    /// `p` lands on rank `p % nodes`, so the same reduction recovers the
    /// serving rank here. Output files record an actual rank, which the
    /// modulo leaves unchanged.
    pub fn owner_of(&self, path: &str) -> Option<usize> {
        let meta = self.meta.read();
        meta.get(path).map(|e| e.stat.owner_rank as usize % self.size.max(1))
    }

    /// Fetch the compressed object for a daemon GET (serving a remote
    /// peer): returns the raw compressed bytes plus codec and stat.
    pub fn get_compressed(&self, path: &str) -> Option<LocalObject> {
        if let Some(o) = self.local.get(path) {
            self.stats.served_requests.inc();
            return Some(o);
        }
        // Serve locally written output files raw (codec = store). The
        // recorded metadata entry keeps the true owner rank — a replica
        // serving a pushed copy must not claim ownership.
        if let Some(w) = self.writes.read().get(path) {
            self.stats.served_requests.inc();
            return Some(self.raw_object(path, Arc::clone(w)));
        }
        // Writes recovered by WAL replay (the write-store map is empty
        // right after a restart) serve the same way.
        match self.wal.as_ref()?.get(path) {
            Ok(crate::wal::Lookup::Hit(v)) => {
                self.stats.served_requests.inc();
                Some(self.raw_object(path, v))
            }
            _ => None,
        }
    }

    /// Wrap uncompressed write-store bytes as a servable object,
    /// preferring the recorded metadata entry for attributes.
    fn raw_object(&self, path: &str, data: Arc<Vec<u8>>) -> LocalObject {
        let stat = self
            .meta
            .read()
            .get(path)
            .map(|e| e.stat)
            .unwrap_or_else(|| FileStat::regular(0, data.len() as u64));
        LocalObject::new(CodecId::new(fanstore_compress::CodecFamily::Store, 0), stat, data)
    }

    /// Finalise an output file on this node (the write-cache dump of
    /// §V-D): stores the data and returns the metadata entry to forward to
    /// the owner rank.
    pub fn finalize_write(&self, path: &str, data: Vec<u8>) -> Result<MetaEntry, FsError> {
        let mut writes = self.writes.write();
        if writes.contains_key(path) || self.local.contains(path) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let data = Arc::new(data);
        // Durability first: the write lands (and commits, per the WAL's
        // group-commit policy) before it becomes visible. An error here
        // means the write is NOT durable and must not be acknowledged.
        if let Some(wal) = &self.wal {
            wal.put(path, (*data).clone())?;
        }
        let mut stat = FileStat::regular(0, data.len() as u64);
        stat.owner_rank = self.rank as u32;
        self.stats.write_bytes.add(data.len() as u64);
        writes.insert(path.to_string(), data);
        self.stats.files_written.inc();
        self.stats.write_count.inc();
        let entry =
            MetaEntry { stat, codec: CodecId::new(fanstore_compress::CodecFamily::Store, 0) };
        self.meta.write().insert(path, entry);
        Ok(entry)
    }

    /// Store an object pushed by a peer (checkpoint replication PUT).
    /// Unlike [`NodeState::finalize_write`] this is idempotent — a
    /// replication retry simply overwrites the same bytes — and the
    /// metadata keeps the *pusher's* rank as owner, so readers keep
    /// addressing the primary first and only land here via failover.
    pub fn put_replica(&self, path: &str, owner: u32, data: Vec<u8>) -> Result<(), FsError> {
        let data = Arc::new(data);
        if let Some(wal) = &self.wal {
            wal.put(path, (*data).clone())?;
        }
        let mut stat = FileStat::regular(0, data.len() as u64);
        stat.owner_rank = owner;
        self.stats.write_count.inc();
        self.stats.write_bytes.add(data.len() as u64);
        if self.writes.write().insert(path.to_string(), data).is_some() {
            self.stats.write_overwrites.inc();
        }
        self.cache.purge(path);
        self.meta.write().insert(
            path,
            MetaEntry { stat, codec: CodecId::new(fanstore_compress::CodecFamily::Store, 0) },
        );
        Ok(())
    }

    /// Unlink an output file (checkpoint GC): drops the write store copy,
    /// the metadata entry and any cached decompression. Input files are
    /// immutable and refuse removal. Returns whether anything was present.
    pub fn remove_write(&self, path: &str) -> Result<bool, FsError> {
        if self.local.contains(path) {
            return Err(FsError::ReadOnly(path.to_string()));
        }
        // A durable tombstone, so the unlink also survives a restart.
        // Only written when the WAL resolves the key — unlinking a path
        // that was never written must stay a no-op.
        let mut had_wal = false;
        if let Some(wal) = &self.wal {
            if wal.contains(path) {
                wal.unlink(path)?;
                had_wal = true;
            }
        }
        let had_write = self.writes.write().remove(path).is_some();
        let had_meta = self.meta.write().remove(path);
        self.cache.purge(path);
        Ok(had_write || had_meta || had_wal)
    }
}

/// One decoded chunk of a range read, with its position in the file.
#[derive(Debug, Clone)]
pub struct RangeChunk {
    /// Chunk index in the file's chunk table.
    pub index: u32,
    /// First raw byte the chunk covers.
    pub offset: u64,
    /// Decoded (raw) chunk bytes.
    pub data: Arc<Vec<u8>>,
}

/// The decoded chunks covering one byte range, plus the file geometry a
/// cache needs to track partial residency.
#[derive(Debug, Clone)]
pub struct RangePieces {
    /// Nominal chunk size of the file.
    pub chunk_size: u32,
    /// Total raw file length.
    pub total_len: u64,
    /// Covering chunks, in offset order.
    pub chunks: Vec<RangeChunk>,
}

impl RangePieces {
    /// Assemble the bytes of `[start, end)` from the covering chunks.
    /// Errors if the chunks do not cover the range contiguously, or if a
    /// chunk's extent overflows `u64` (offsets may come from a peer's
    /// PARTIAL frame).
    pub fn assemble(&self, start: u64, end: u64) -> Result<Vec<u8>, FsError> {
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut at = start;
        for c in &self.chunks {
            let c_end = c
                .offset
                .checked_add(c.data.len() as u64)
                .ok_or_else(|| FsError::Corrupt(format!("chunk {} extent overflows", c.index)))?;
            if at < c.offset || at >= c_end {
                continue;
            }
            let take_end = c_end.min(end);
            out.extend_from_slice(
                &c.data[(at - c.offset) as usize..(take_end - c.offset) as usize],
            );
            at = take_end;
            if at == end {
                break;
            }
        }
        if at != end {
            return Err(FsError::Corrupt(format!("range [{start}, {end}) not covered by chunks")));
        }
        Ok(out)
    }
}

/// Decompress a compressed object payload (shared by the local path and
/// the remote-fetch path). Payloads marked [`crate::pack::CHUNKED`] are
/// FCHK containers and decode through the chunk table, so every existing
/// read path is transparently chunk-aware.
pub fn decompress_object(
    codec: CodecId,
    data: &[u8],
    expected_len: usize,
    path: &str,
) -> Result<Vec<u8>, FsError> {
    if codec == crate::pack::CHUNKED {
        let plain = crate::pack::decode_chunked(data)
            .map_err(|e| FsError::Corrupt(format!("{path}: {e}")))?;
        if plain.len() != expected_len {
            return Err(FsError::Corrupt(format!(
                "{path}: chunked length mismatch: expected {expected_len}, got {}",
                plain.len()
            )));
        }
        return Ok(plain);
    }
    let codec = create(codec).map_err(|e| FsError::Corrupt(format!("{path}: {e}")))?;
    fanstore_compress::decompress_to_vec(codec.as_ref(), data, expected_len)
        .map_err(|e| FsError::Corrupt(format!("{path}: {e}")))
}

/// [`decompress_object`] into a caller-supplied (typically pooled)
/// buffer. The buffer is cleared first; on success it holds exactly
/// `expected_len` bytes.
pub fn decompress_object_into(
    codec: CodecId,
    data: &[u8],
    expected_len: usize,
    path: &str,
    out: &mut Vec<u8>,
) -> Result<(), FsError> {
    if codec == crate::pack::CHUNKED {
        let plain = decompress_object(codec, data, expected_len, path)?;
        out.clear();
        out.extend_from_slice(&plain);
        return Ok(());
    }
    let codec = create(codec).map_err(|e| FsError::Corrupt(format!("{path}: {e}")))?;
    fanstore_compress::decompress_into(codec.as_ref(), data, expected_len, out)
        .map_err(|e| FsError::Corrupt(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{prepare, PrepConfig};

    fn state() -> NodeState {
        NodeState::new(0, 1, CacheConfig::default())
    }

    fn packed_files() -> Vec<Vec<u8>> {
        let files = vec![
            ("a/x.bin".to_string(), b"xxxxxxxxxx".repeat(20)),
            ("a/y.bin".to_string(), b"yyyyyyyyyy".repeat(30)),
        ];
        prepare(files, &PrepConfig { partitions: 1, ..Default::default() }).partitions
    }

    #[test]
    fn load_and_open_local() {
        let s = state();
        assert_eq!(s.load_partition(&packed_files()[0]).unwrap(), 2);
        let data = s.open_local("a/x.bin").unwrap().unwrap();
        assert_eq!(&data[..], &b"xxxxxxxxxx".repeat(20)[..]);
        // Second open hits the cache.
        let again = s.open_local("a/x.bin").unwrap().unwrap();
        assert!(Arc::ptr_eq(&data, &again));
        assert_eq!(s.cache.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats.local_opens.get(), 2);
        // Stats and registry agree: same underlying counter.
        assert_eq!(s.metrics.snapshot().counter("client.local.opens"), 2);
    }

    #[test]
    fn open_missing_is_none() {
        let s = state();
        s.load_partition(&packed_files()[0]).unwrap();
        assert!(s.open_local("nope").unwrap().is_none());
    }

    #[test]
    fn meta_encode_merge_between_nodes() {
        let a = state();
        a.load_partition(&packed_files()[0]).unwrap();
        let b = NodeState::new(1, 2, CacheConfig::default());
        b.merge_meta(&a.encode_local_meta()).unwrap();
        assert_eq!(b.meta.read().stat("a/x.bin").unwrap().size, 200);
        assert!(b.open_local("a/x.bin").unwrap().is_none(), "metadata only, no data");
    }

    #[test]
    fn finalize_write_then_read_back() {
        let s = state();
        let entry = s.finalize_write("out/ckpt.h5", vec![7u8; 500]).unwrap();
        assert_eq!(entry.stat.size, 500);
        assert_eq!(entry.stat.owner_rank, 0);
        let data = s.open_local("out/ckpt.h5").unwrap().unwrap();
        assert_eq!(data.len(), 500);
    }

    #[test]
    fn write_once_enforced() {
        let s = state();
        s.finalize_write("f", vec![1]).unwrap();
        assert!(matches!(s.finalize_write("f", vec![2]), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn cannot_overwrite_input_file() {
        let s = state();
        s.load_partition(&packed_files()[0]).unwrap();
        assert!(matches!(s.finalize_write("a/x.bin", vec![0]), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn put_replica_is_idempotent_and_keeps_owner() {
        let s = NodeState::new(2, 4, CacheConfig::default());
        s.put_replica("ckpt/gen1/seg0", 0, vec![1u8; 64]).unwrap();
        s.put_replica("ckpt/gen1/seg0", 0, vec![2u8; 32]).unwrap(); // retry overwrites
        assert_eq!(s.stats.write_overwrites.get(), 1);
        assert_eq!(s.stats.write_count.get(), 2);
        assert_eq!(s.stats.write_bytes.get(), 96);
        let data = s.open_local("ckpt/gen1/seg0").unwrap().unwrap();
        assert_eq!(&data[..], &[2u8; 32]);
        // Owner stays the pusher, not the replica holding the copy.
        assert_eq!(s.meta.read().get("ckpt/gen1/seg0").unwrap().stat.owner_rank, 0);
    }

    #[test]
    fn remove_write_unlinks_and_refuses_inputs() {
        let s = state();
        s.load_partition(&packed_files()[0]).unwrap();
        s.finalize_write("out/tmp.bin", vec![9u8; 10]).unwrap();
        s.open_local("out/tmp.bin").unwrap().unwrap(); // populate the cache
        assert!(s.remove_write("out/tmp.bin").unwrap());
        assert!(s.open_local("out/tmp.bin").unwrap().is_none());
        assert!(s.meta.read().get("out/tmp.bin").is_none());
        assert!(!s.remove_write("out/tmp.bin").unwrap(), "second unlink is a no-op");
        // The path is free again: write-once applies per lifetime, not
        // forever (GC must be able to recycle generation slots).
        s.finalize_write("out/tmp.bin", vec![1]).unwrap();
        // Input files refuse unlink.
        assert!(matches!(s.remove_write("a/x.bin"), Err(FsError::ReadOnly(_))));
    }

    #[test]
    fn get_compressed_serves_inputs_and_writes() {
        let s = state();
        s.load_partition(&packed_files()[0]).unwrap();
        s.finalize_write("out.log", b"log line".to_vec()).unwrap();
        assert!(s.get_compressed("a/y.bin").is_some());
        let w = s.get_compressed("out.log").unwrap();
        assert_eq!(&w.data[..], b"log line");
        assert!(s.get_compressed("missing").is_none());
    }

    #[test]
    fn corrupt_partition_data_detected_on_open() {
        let s = state();
        let mut part = packed_files().remove(0);
        // Flip a byte inside the first entry's compressed payload.
        let n = part.len();
        part[n - 5] ^= 0xFF;
        // Loading may still succeed (structure intact)...
        if s.load_partition(&part).is_ok() {
            // ...but opening the damaged file must fail or mismatch, never
            // panic.
            let _ = s.open_local("a/y.bin");
        }
    }

    #[test]
    fn request_ids_unique_and_rank_scoped() {
        let a = NodeState::new(0, 4, CacheConfig::default());
        let b = NodeState::new(1, 4, CacheConfig::default());
        let ida = a.next_request_id();
        assert_ne!(ida, 0);
        assert_ne!(ida, a.next_request_id());
        assert_eq!(ida >> 48, 1);
        assert_eq!(b.next_request_id() >> 48, 2);
    }

    #[test]
    fn decompress_timed_records_codec_metrics() {
        let s = state();
        s.load_partition(&packed_files()[0]).unwrap();
        s.open_local("a/x.bin").unwrap().unwrap();
        let snap = s.metrics.snapshot();
        let decoded: u64 = snap
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with("codec.") && k.ends_with(".decode_us"))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(decoded, 1, "one decode recorded: {:?}", snap.histograms.keys());
    }
}
