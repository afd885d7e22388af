//! Per-node FanStore state: the local compressed object store, the
//! replicated metadata view, the decompressed cache and the write store —
//! one [`WalStore`], which alone holds every output and replica here.
//!
//! This is the state shared between a node's daemon thread (serving remote
//! requests) and its training I/O threads (the `FsClient`s).
//!
//! Every read of this node's bytes finds them through one lookup,
//! [`NodeState::lookup`] (partition table, then the write store): the
//! daemon serving a peer, a client's local read and a batch's local pass
//! alike. Every read then decides which of those bytes answer it through
//! one planner, [`LocalObject::plan`] (the whole object, or the covering
//! chunks / tier prefix of a chunked one), which also plans the
//! read-through copy (DESIGN.md §6, "Read protocol").

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fanstore_compress::crc32::crc32;
use fanstore_compress::registry::create;
use fanstore_compress::{CodecFamily, CodecId};
use parking_lot::RwLock;

use crate::bufpool::BufPool;
use crate::cache::{CacheConfig, FileCache};
use crate::daemon::{GetManyItem, GetManySpec, PartialChunk, PartialReply};
use crate::meta::{MetaEntry, MetaTable};
use crate::metrics::{now_us, Counter, Gauge, Histogram, MetricsRegistry};
use crate::pack::{
    chunk_stored, parse_chunk_table, parse_partition, ChunkKind, ChunkMeta, CHUNKED, TIER_FULL,
};
use crate::stat::FileStat;
use crate::wal::segment::STORED_RAW;
use crate::wal::{Lookup, RamMedia, WalConfig, WalStore};
use crate::FsError;

/// One stored object on this node, as it is stored: a compressed input
/// object held in RAM (the paper's default backend; its SSD backend is
/// modelled by io-sim), or an output the write store holds — raw while it
/// sits in the memtable, compressed once a flush found that it shrinks.
/// Whoever reads it decodes it ([`NodeState::decode_timed`]).
///
/// A packed payload is immutable once stored, so its CRC-32 is computed
/// once, by [`LocalObject::new`], and the daemon seals every whole-entry
/// reply from it instead of walking the payload per request
/// (`framing::LeadingCrc`); PARTIAL replies are sealed the same way, from
/// the chunk table's CRCs.
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
    /// `None` for a write-store value ([`NodeState::lookup`]), which is
    /// hashed when it is served.
    data_crc: Option<u32>,
}

impl LocalObject {
    /// Wrap a stored payload, checksumming it once.
    pub fn new(codec: CodecId, stat: FileStat, data: Arc<Vec<u8>>) -> Self {
        let data_crc = Some(crc32(&data));
        LocalObject { codec, stat, data, data_crc }
    }

    /// CRC-32 of `data` as it was when the object was created (a
    /// write-store value: as it is now).
    pub fn data_crc(&self) -> u32 {
        self.data_crc.unwrap_or_else(|| crc32(&self.data))
    }

    /// The file itself, when this object is a write-store value stored
    /// raw: it enters the cache as it is, with no decode-copy.
    pub fn plain_bytes(&self) -> Option<&Arc<Vec<u8>>> {
        (self.data_crc.is_none() && self.codec == STORED_RAW).then_some(&self.data)
    }

    /// Which of this object's bytes answer `spec` — the one decision,
    /// made alike for the daemon serving a peer, a local read and a
    /// read-through. A byte range of a range-chunked container and a
    /// fidelity bound on a progressive one are answered by their covering
    /// chunks / tier prefix; everything else by the whole object,
    /// including a request the container has no partial form for (a range
    /// of a progressive object, a tier of a range-chunked one), which the
    /// reader slices or decodes. A range outside a range container is
    /// [`FsError::BadRange`]; a damaged chunk table is
    /// [`FsError::Corrupt`].
    pub fn plan(&self, spec: &GetManySpec<'_>) -> Result<GetManyItem<'_>, FsError> {
        let whole = GetManyItem::Whole(self.codec, self.stat, &self.data[..]);
        if self.codec != CHUNKED || (spec.range.is_none() && spec.min_tier == TIER_FULL) {
            return Ok(whole);
        }
        let table = parse_chunk_table(&self.data)?;
        let idxs = match (table.kind, spec.range) {
            (ChunkKind::Progressive, None) => table.tiers_up_to(spec.min_tier),
            (ChunkKind::Range, Some((start, end))) if start < end && end <= table.raw_len => {
                table.covering(start, end)
            }
            (ChunkKind::Range, Some((start, end))) => {
                return Err(FsError::BadRange(format!("[{start}, {end}) of {}", table.raw_len)))
            }
            _ => return Ok(whole),
        };
        let chunk = |idx: usize| {
            let ChunkMeta { tier, offset, raw_len, crc32, .. } = table.chunks[idx];
            let stored = chunk_stored(&self.data, &table, idx)?;
            let index = idx as u32;
            Ok(PartialChunk { index, tier, offset, raw_len, crc32, stored, arrival_crc: None })
        };
        Ok(GetManyItem::Partial(PartialReply {
            inner_codec: table.inner_codec,
            stat: self.stat,
            chunk_size: table.chunk_size,
            raw_len: table.raw_len,
            chunks: idxs.into_iter().map(chunk).collect::<Result<_, FsError>>()?,
        }))
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
    /// Files opened and served from this node
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
    /// Reads ultimately served by the read-through copy (the "shared
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
    /// Remote fetches that exhausted the per-op retry budget before any
    /// replica answered (`client.retry.exhausted`).
    pub retry_exhausted: Arc<Counter>,
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
            retry_exhausted: registry.counter("client.retry.exhausted"),
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
    /// Local compressed input objects, keyed by path: the RAM hash table
    /// of §IV-C1.
    pub local: RwLock<HashMap<String, LocalObject>>,
    /// Decompressed-file cache.
    pub cache: FileCache,
    /// The write store (see [`crate::wal`]): outputs finalised here and
    /// replicas pushed here, and the tombstones of unlinked ones.
    /// A write lands in it before it is acknowledged. `Some` on every
    /// node (the constructors open one in memory; [`NodeState::attach_wal`]
    /// replaces it); node code reaches it through one private accessor.
    pub wal: Option<Arc<WalStore>>,
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
    /// Per-codec decode instruments, resolved on each codec's first decode.
    codec_decode: CodecDecodeMetrics,
}

/// Decode names: one per codec family, then `chunked` and `unknown`.
const DECODE_NAMES: usize = CodecFamily::ALL.len() + 2;

/// `codec.<name>.decode_us` and `codec.<name>.decode_bytes` for every name
/// a decode reports under, each pair resolved once, on the name's first
/// decode, so the registry lists only codecs that decoded something.
#[derive(Debug, Default)]
struct CodecDecodeMetrics {
    slots: [OnceLock<(Arc<Histogram>, Arc<Counter>)>; DECODE_NAMES],
}

impl CodecDecodeMetrics {
    fn handles(
        &self,
        registry: &MetricsRegistry,
        codec: CodecId,
    ) -> &(Arc<Histogram>, Arc<Counter>) {
        let (slot, name) = match codec.family() {
            _ if codec == CHUNKED => (DECODE_NAMES - 2, "chunked"),
            Some(f) => (f as usize, f.name()),
            None => (DECODE_NAMES - 1, "unknown"),
        };
        self.slots[slot].get_or_init(|| {
            (
                registry.histogram(&format!("codec.{name}.decode_us")),
                registry.counter(&format!("codec.{name}.decode_bytes")),
            )
        })
    }
}

impl NodeState {
    /// Fresh state for `rank` of `size`, holding no inputs yet.
    pub fn new(rank: usize, size: usize, cache_cfg: CacheConfig) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let stats = NodeStats::register(&metrics);
        let pool = Arc::new(BufPool::default());
        // The in-memory write store: a WAL whose medium dies with it.
        let cfg = WalConfig { sync_cost: Duration::ZERO, ..WalConfig::default() };
        let (wal, _) = WalStore::open(RamMedia::new(Duration::ZERO), cfg, &metrics)
            .expect("an empty medium opens");
        NodeState {
            rank,
            size,
            meta: RwLock::new(MetaTable::new()),
            local: RwLock::new(HashMap::new()),
            cache: FileCache::with_recycle(cache_cfg, Arc::clone(&pool)),
            wal: Some(Arc::new(wal)),
            metrics,
            stats,
            pool,
            next_request: AtomicU64::new(0),
            codec_decode: CodecDecodeMetrics::default(),
        }
    }

    /// Replace the write store with `wal`, typically one opened on a
    /// medium that outlives the run. Call before the state is shared;
    /// what the store recovered is readable immediately.
    pub fn attach_wal(&mut self, wal: Arc<WalStore>) {
        self.wal = Some(wal);
    }

    /// The write store, which every constructor opens.
    fn store(&self) -> &WalStore {
        self.wal.as_deref().expect("every node has a write store")
    }

    /// Mint a cluster-unique request id for one client operation:
    /// `(rank + 1) << 48 | sequence`. Never 0 — 0 in a message envelope
    /// means "not part of a traced request".
    pub fn next_request_id(&self) -> u64 {
        let seq = self.next_request.fetch_add(1, Ordering::Relaxed);
        ((self.rank as u64 + 1) << 48) | (seq & 0xFFFF_FFFF_FFFF)
    }

    /// Load one packed partition into the local table and the local
    /// metadata table (§IV-C1); an entry replaces one of the same path. `owned` marks partitions assigned to this
    /// rank (their entries keep their recorded owner); replicas loaded for
    /// locality keep the original owner rank in metadata so other nodes
    /// still address the assigned owner.
    pub fn load_partition(&self, partition: &[u8]) -> Result<usize, FsError> {
        let entries = parse_partition(partition)?;
        let count = entries.len();
        let (mut meta, mut local) = (self.meta.write(), self.local.write());
        for e in entries {
            meta.insert(&e.path, MetaEntry { stat: e.stat, codec: e.codec });
            local.insert(e.path, LocalObject::new(e.codec, e.stat, Arc::new(e.data)));
        }
        Ok(count)
    }

    /// Record and serialise the metadata of what this node holds, for the
    /// startup allgather: its inputs, and each live value its write store
    /// recovered, recorded as [`NodeState::finalize_write`] records an
    /// output (a replica is then named by two ranks; each reads its own).
    pub fn encode_local_meta(&self) -> Vec<u8> {
        let mut meta = self.meta.write();
        for (path, len) in self.store().live() {
            meta.insert(&path, output_entry(self.rank as u32, len as u64));
        }
        meta.encode()
    }

    /// Merge another node's metadata (from the allgather).
    pub fn merge_meta(&self, buf: &[u8]) -> Result<usize, FsError> {
        self.meta.write().merge_encoded(buf)
    }

    /// Pool-backed [`decompress_object_into`] plus decode metrics, through
    /// [`NodeState::decode_timed`].
    pub fn decompress_timed(
        &self,
        codec: CodecId,
        data: &[u8],
        expected_len: usize,
        path: &str,
    ) -> Result<Vec<u8>, FsError> {
        self.decode_timed(codec, expected_len, |out| {
            decompress_object_into(codec, data, expected_len, path, out)
        })
    }

    /// The one timed decode: `decode` fills a pooled buffer with room for
    /// `capacity` bytes, and the bytes it produced count under `codec` —
    /// per codec (`codec.<name>.decode_us`, `codec.<name>.decode_bytes`)
    /// and node-wide (`client.decompress.bytes`,
    /// `client.decompress.mb_per_s`). `capacity` sizes an allocation, so it
    /// is a length the caller has bounded by the file.
    ///
    /// In a warm steady state this call performs no allocation. The buffer
    /// flows back to the pool via cache eviction
    /// ([`crate::cache::FileCache`] recycling) or
    /// [`crate::client::FsClient::recycle`].
    pub fn decode_timed(
        &self,
        codec: CodecId,
        capacity: usize,
        decode: impl FnOnce(&mut Vec<u8>) -> Result<(), FsError>,
    ) -> Result<Vec<u8>, FsError> {
        let start = now_us();
        let mut out = self.pool.take(capacity);
        if let Err(e) = decode(&mut out) {
            self.pool.put(out);
            return Err(e);
        }
        let elapsed = now_us() - start;
        let (decode_us, decode_bytes) = self.codec_decode.handles(&self.metrics, codec);
        decode_us.record(elapsed);
        decode_bytes.add(out.len() as u64);
        self.stats.decompress_bytes.add(out.len() as u64);
        // bytes/us == MB/s: both scale factors are 10^6.
        self.stats.decompress_mb_per_s.set(out.len() as u64 / elapsed.max(1));
        Ok(out)
    }

    /// The rank holding a path's compressed bytes, from metadata.
    ///
    /// Data preparation records the *partition index* in `owner_rank`
    /// (the cluster size is unknown at prep time); at load, partition
    /// `p` lands on rank `p % nodes`, so the same reduction recovers the
    /// serving rank here. Output files record an actual rank, which the
    /// modulo leaves unchanged.
    pub fn owner_of(&self, path: &str) -> Option<usize> {
        self.placement(path).map(|(owner, _)| owner)
    }

    /// [`NodeState::owner_of`] and the file's size, from one read of the
    /// metadata.
    pub fn placement(&self, path: &str) -> Option<(usize, u64)> {
        let meta = self.meta.read();
        meta.get(path).map(|e| (e.stat.owner_rank as usize % self.size.max(1), e.stat.size))
    }

    /// Find `path`'s stored bytes on this node: the one lookup behind
    /// every read of them (the daemon serving a peer, a client's local
    /// read, a batch's local pass). The order is fixed — the partition
    /// table, then the write store, which holds this life's writes,
    /// what a restart recovered and the tombstones that hide unlinked
    /// files. An output comes back as stored, under its recorded
    /// attributes (a replica serving a pushed copy keeps the true owner
    /// rank), or under its raw length where metadata has no entry.
    pub fn lookup(&self, path: &str) -> Result<Option<LocalObject>, FsError> {
        if let Some(obj) = self.local.read().get(path) {
            return Ok(Some(obj.clone()));
        }
        let Lookup::Hit(codec, raw_len, data) = self.store().get(path)? else { return Ok(None) };
        let stat = self.meta.read().get(path).map(|e| e.stat);
        let stat = stat.unwrap_or_else(|| FileStat::regular(0, raw_len as u64));
        Ok(Some(LocalObject { codec, stat, data, data_crc: None }))
    }

    /// Whether `path` is an input or an output this node holds — the
    /// write-once test, answered from indexes without reading a byte.
    pub(crate) fn holds(&self, path: &str) -> bool {
        self.local.read().contains_key(path) || self.store().contains(path)
    }

    /// Finalise an output file on this node (the write-cache dump of
    /// §V-D): stores the data and returns the metadata entry to forward to
    /// the owner rank.
    pub fn finalize_write(&self, path: &str, data: Vec<u8>) -> Result<MetaEntry, FsError> {
        // Write-once: an input, an output of this life or one a restart
        // recovered all refuse; put-if-absent settles a racing writer.
        // Durability first: the write lands (and commits, per the WAL's
        // group-commit policy) before it becomes visible. An error here
        // means the write is NOT durable and must not be acknowledged.
        let len = data.len() as u64;
        if self.local.read().contains_key(path) || self.store().put_if_absent(path, data)?.is_none()
        {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        self.stats.write_bytes.add(len);
        self.stats.files_written.inc();
        self.stats.write_count.inc();
        let entry = output_entry(self.rank as u32, len);
        self.meta.write().insert(path, entry);
        Ok(entry)
    }

    /// Store an object pushed by a peer (checkpoint replication PUT).
    /// Unlike [`NodeState::finalize_write`] this is idempotent — a
    /// replication retry simply overwrites the same bytes — and the
    /// metadata keeps the *pusher's* rank as owner, so readers keep
    /// addressing the primary first and only land here via failover.
    pub fn put_replica(&self, path: &str, owner: u32, data: Vec<u8>) -> Result<(), FsError> {
        let len = data.len() as u64;
        let replaced = self.store().contains(path);
        self.store().put(path, data)?;
        self.stats.write_count.inc();
        self.stats.write_bytes.add(len);
        if replaced {
            self.stats.write_overwrites.inc();
        }
        self.cache.purge(path);
        self.meta.write().insert(path, output_entry(owner, len));
        Ok(())
    }

    /// Unlink an output file (checkpoint GC): drops the write store copy,
    /// the metadata entry and any cached decompression. Input files are
    /// immutable and refuse removal. Returns whether anything was present.
    pub fn remove_write(&self, path: &str) -> Result<bool, FsError> {
        if self.local.read().contains_key(path) {
            return Err(FsError::ReadOnly(path.to_string()));
        }
        // The tombstone is durable, so the unlink also survives a restart.
        // Only written when the store resolves the key — unlinking a path
        // that was never written must stay a no-op.
        let had_write = self.store().contains(path);
        if had_write {
            self.store().unlink(path)?;
        }
        let had_meta = self.meta.write().remove(path);
        self.cache.purge(path);
        Ok(had_write || had_meta)
    }
}

/// The metadata of an output `len` bytes long, owned by rank `owner`.
fn output_entry(owner: u32, len: u64) -> MetaEntry {
    let mut stat = FileStat::regular(0, len);
    stat.owner_rank = owner;
    MetaEntry { stat, codec: STORED_RAW }
}

/// Decode a stored object payload into a caller-supplied (typically
/// pooled) buffer: the one whole-object decode, shared by every read
/// path. The buffer is cleared first; on success it holds exactly
/// `expected_len` bytes. Payloads marked [`crate::pack::CHUNKED`] are FCHK
/// containers and decode through [`crate::pack::decode_container`], so
/// every read path is transparently chunk-aware.
pub fn decompress_object_into(
    codec: CodecId,
    data: &[u8],
    expected_len: usize,
    path: &str,
    out: &mut Vec<u8>,
) -> Result<(), FsError> {
    if codec == CHUNKED {
        return crate::pack::decode_container(data, expected_len, TIER_FULL, out)
            .map_err(|e| FsError::Corrupt(format!("{path}: {e}")));
    }
    let corrupt = |e: fanstore_compress::CodecError| FsError::Corrupt(format!("{path}: {e}"));
    let codec = create(codec).map_err(corrupt)?;
    fanstore_compress::decompress_into(codec.as_ref(), data, expected_len, out).map_err(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{prepare, PrepConfig};

    fn state() -> NodeState {
        NodeState::new(0, 1, CacheConfig::default())
    }

    /// `path`'s bytes as a local read decodes them from the lookup.
    fn read(s: &NodeState, path: &str) -> Option<Vec<u8>> {
        let obj = s.lookup(path).unwrap()?;
        Some(match obj.plain_bytes() {
            Some(plain) => plain.to_vec(),
            None => s.decompress_timed(obj.codec, &obj.data, obj.stat.size as usize, path).unwrap(),
        })
    }

    fn packed_files() -> Vec<Vec<u8>> {
        let files = vec![
            ("a/x.bin".to_string(), b"xxxxxxxxxx".repeat(20)),
            ("a/y.bin".to_string(), b"yyyyyyyyyy".repeat(30)),
        ];
        prepare(files, &PrepConfig { partitions: 1, ..Default::default() }).partitions
    }

    #[test]
    fn load_then_lookup() {
        let s = state();
        assert_eq!(s.load_partition(&packed_files()[0]).unwrap(), 2);
        let obj = s.lookup("a/x.bin").unwrap().unwrap();
        assert!(obj.plain_bytes().is_none(), "an input is packed");
        assert_eq!(read(&s, "a/x.bin").unwrap(), b"xxxxxxxxxx".repeat(20));
    }

    #[test]
    fn lookup_of_a_missing_path_is_none() {
        let s = state();
        s.load_partition(&packed_files()[0]).unwrap();
        assert!(s.lookup("nope").unwrap().is_none());
    }

    #[test]
    fn meta_encode_merge_between_nodes() {
        let a = state();
        a.load_partition(&packed_files()[0]).unwrap();
        let b = NodeState::new(1, 2, CacheConfig::default());
        b.merge_meta(&a.encode_local_meta()).unwrap();
        assert_eq!(b.meta.read().stat("a/x.bin").unwrap().size, 200);
        assert!(b.lookup("a/x.bin").unwrap().is_none(), "metadata only, no data");
    }

    #[test]
    fn finalize_write_then_read_back() {
        let s = state();
        let entry = s.finalize_write("out/ckpt.h5", vec![7u8; 500]).unwrap();
        assert_eq!(entry.stat.size, 500);
        assert_eq!(entry.stat.owner_rank, 0);
        let obj = s.lookup("out/ckpt.h5").unwrap().unwrap();
        assert_eq!(obj.plain_bytes().map(|b| b.len()), Some(500), "kept plain");
        assert_eq!(obj.stat, entry.stat);
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
        assert_eq!(read(&s, "ckpt/gen1/seg0").unwrap(), [2u8; 32]);
        // Owner stays the pusher, not the replica holding the copy.
        assert_eq!(s.meta.read().get("ckpt/gen1/seg0").unwrap().stat.owner_rank, 0);
    }

    #[test]
    fn remove_write_unlinks_and_refuses_inputs() {
        let s = state();
        s.load_partition(&packed_files()[0]).unwrap();
        s.finalize_write("out/tmp.bin", vec![9u8; 10]).unwrap();
        s.cache.insert("out/tmp.bin", Arc::new(vec![9u8; 10])); // a cached read
        assert!(s.remove_write("out/tmp.bin").unwrap());
        assert!(s.lookup("out/tmp.bin").unwrap().is_none());
        assert!(s.cache.open("out/tmp.bin").is_none(), "the cached copy goes too");
        assert!(s.meta.read().get("out/tmp.bin").is_none());
        assert!(!s.remove_write("out/tmp.bin").unwrap(), "second unlink is a no-op");
        // The path is free again: write-once applies per lifetime, not
        // forever (GC must be able to recycle generation slots).
        s.finalize_write("out/tmp.bin", vec![1]).unwrap();
        // Input files refuse unlink.
        assert!(matches!(s.remove_write("a/x.bin"), Err(FsError::ReadOnly(_))));
    }

    #[test]
    fn lookup_finds_inputs_and_writes() {
        let s = state();
        s.load_partition(&packed_files()[0]).unwrap();
        s.finalize_write("out.log", b"log line".to_vec()).unwrap();
        assert!(s.lookup("a/y.bin").unwrap().is_some());
        let w = s.lookup("out.log").unwrap().unwrap();
        assert_eq!(&w.data[..], b"log line");
        assert_eq!(w.data_crc(), crc32(b"log line"), "plain bytes are hashed when served");
        assert!(s.lookup("missing").unwrap().is_none());
    }

    #[test]
    fn bytes_only_the_wal_knows_are_found_and_stay_write_once() {
        // After a restart the metadata table lacks the path: only the
        // replayed store still holds it.
        let registry = MetricsRegistry::new();
        let media = crate::wal::RamMedia::new(std::time::Duration::ZERO);
        let (wal, _) = crate::wal::WalStore::open(media, Default::default(), &registry).unwrap();
        wal.put("out/recovered.bin", vec![5u8; 64]).unwrap();
        wal.put("out/gone.bin", vec![6u8; 8]).unwrap();
        wal.unlink("out/gone.bin").unwrap();
        let mut s = state();
        s.attach_wal(Arc::new(wal));
        assert_eq!(read(&s, "out/recovered.bin").unwrap(), [5u8; 64]);
        assert!(s.lookup("out/gone.bin").unwrap().is_none(), "a tombstone hides it");
        let again = s.finalize_write("out/recovered.bin", vec![1]);
        assert!(matches!(again, Err(FsError::AlreadyExists(_))), "{again:?}");
        assert_eq!(read(&s, "out/recovered.bin").unwrap(), [5u8; 64], "acknowledged bytes stay");
        s.finalize_write("out/gone.bin", vec![2]).unwrap();
    }

    #[test]
    fn a_restart_names_every_live_value_the_write_store_recovered() {
        let registry = MetricsRegistry::new();
        let media = crate::wal::RamMedia::new(Duration::ZERO);
        let (wal, _) = WalStore::open(media, Default::default(), &registry).unwrap();
        let flushed = b"a recovered output ".repeat(64);
        wal.put("out/flushed.bin", flushed.clone()).unwrap();
        wal.flush().unwrap();
        wal.put("out/tail.bin", vec![5u8; 64]).unwrap();
        wal.put("out/gone.bin", vec![6u8; 8]).unwrap();
        wal.unlink("out/gone.bin").unwrap();
        let mut s = NodeState::new(1, 2, CacheConfig::default());
        s.attach_wal(Arc::new(wal));
        let peer = NodeState::new(0, 2, CacheConfig::default());
        peer.merge_meta(&s.encode_local_meta()).unwrap();
        for node in [&s, &peer] {
            let meta = node.meta.read();
            let entry = meta.get("out/flushed.bin").expect("named after the restart");
            assert_eq!((entry.stat.size, entry.stat.owner_rank), (flushed.len() as u64, 1));
            assert_eq!(meta.stat("out/tail.bin").unwrap().size, 64);
            assert!(meta.get("out/gone.bin").is_none(), "a tombstone names nothing");
        }
        let obj = s.lookup("out/flushed.bin").unwrap().unwrap();
        assert!(obj.plain_bytes().is_none(), "a flushed value is served as stored");
        assert!(obj.data.len() < flushed.len());
        assert_eq!(read(&s, "out/flushed.bin").unwrap(), flushed);
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
            if let Ok(Some(obj)) = s.lookup("a/y.bin") {
                let _ = s.decompress_timed(obj.codec, &obj.data, obj.stat.size as usize, "a/y.bin");
            }
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
        read(&s, "a/x.bin").unwrap();
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
