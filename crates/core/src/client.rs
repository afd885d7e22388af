//! The POSIX-style client interface (paper §IV-A, Listing 1).
//!
//! The original FanStore intercepts ten glibc calls (`open`, `close`,
//! `read`, `lseek`, `write`, `opendir`, `readdir`, `closedir`, `stat`)
//! with LD_PRELOAD and trampolines. This reproduction exposes the same
//! surface as methods on [`FsClient`], with per-client file-descriptor
//! tables and the paper's multi-read/single-write consistency model:
//! input files may be opened concurrently by any number of readers;
//! output files are written once by one process and are immutable after
//! `close()`.
//!
//! Whole, range, tier and batch reads miss the cache into one path,
//! `answer_many`: this node's bytes, then rounds of one GET_MANY per owner
//! up its replica ladder, then the read-through copy, each answer planned
//! by the same [`crate::node::LocalObject::plan`]. A single read is a batch
//! of one (DESIGN.md §6, "Read protocol").

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fanstore_compress::CodecId;
use mpi_sim::{CommError, RemoteSender, Tag};
use parking_lot::Mutex;

use crate::daemon::{
    decode_get_many_reply, encode_get_many_request, status, tags, GetManyItem, GetManySpec,
    PartialChunk, MAX_BATCH,
};
use crate::meta::encode_single;
use crate::metrics::{now_us, Counter, Gauge, Histogram};
use crate::node::{LocalObject, NodeState};
use crate::placement::replicas_of;
use crate::stat::FileStat;
use crate::trace::{SpanEvent, TraceRecorder};
use crate::FsError;

/// Client-side recovery policy for remote operations; every client runs
/// under one ([`crate::cluster::ClusterConfig::failover`]).
///
/// Every remote rpc runs under a deadline, and failed reads retry against
/// the ring replicas of the owner ([`replicas_of`], in the order the
/// cluster's placement granted) with bounded exponential backoff and
/// deterministic seeded jitter. Timeouts, CRC failures and replica
/// retries are counted in [`crate::node::NodeStats`]; a read that needed
/// any recovery marks the node degraded rather than failing training,
/// and an unreachable metadata owner costs a count, not the operation.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Per-attempt rpc deadline.
    pub rpc_timeout: Duration,
    /// Attempts per replica before moving to the next one (≥ 1).
    pub attempts_per_replica: u32,
    /// Backoff before the second attempt; doubles every attempt after.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Per-operation retry budget: at most this many *retries* (attempts
    /// after the first) across all replicas before the op fails with the
    /// last error; exhaustions are counted in
    /// `NodeStats::retry_exhausted`.
    pub retry_budget: u32,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            rpc_timeout: Duration::from_millis(250),
            attempts_per_replica: 2,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(20),
            seed: 0,
            retry_budget: 8,
        }
    }
}

/// FNV-1a of a path (stable input to the jitter hash and to
/// [`meta_owner`]).
fn fnv64(path: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in path.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 finaliser for the jitter stream.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The replica ladder's backoff before retry round `attempt` (1-based):
/// exponential from `backoff_base`, capped at `backoff_max`, plus up to
/// 25% deterministic jitter derived from `(seed, path, attempt)`.
fn backoff_delay(cfg: &FailoverConfig, path: &str, attempt: u32) -> Duration {
    let shift = (attempt.saturating_sub(1)).min(20);
    let capped = cfg.backoff_base.saturating_mul(1u32 << shift).min(cfg.backoff_max);
    let h = mix64(cfg.seed ^ fnv64(path) ^ u64::from(attempt));
    capped + capped.mul_f64((h % 1024) as f64 / 4096.0)
}

/// Assemble `[start, end)` from decoded chunks `(offset, bytes)` in offset
/// order (a whole file is one chunk at 0). Offsets may come from a peer's
/// PARTIAL frame: a chunk whose extent overflows `u64`, or a range the
/// chunks leave uncovered, is [`FsError::Corrupt`], never a panic.
fn assemble<'a>(
    chunks: impl IntoIterator<Item = (u64, &'a [u8])>,
    start: u64,
    end: u64,
) -> Result<Vec<u8>, FsError> {
    let mut out = Vec::with_capacity((end - start) as usize);
    for (offset, data) in chunks {
        let at = start + out.len() as u64;
        let c_end = offset.checked_add(data.len() as u64);
        let c_end =
            c_end.ok_or_else(|| FsError::Corrupt(format!("chunk at {offset} overflows")))?;
        if (offset..c_end).contains(&at) {
            out.extend_from_slice(
                &data[(at - offset) as usize..(c_end.min(end) - offset) as usize],
            );
        }
    }
    if out.len() as u64 != end - start {
        return Err(FsError::Corrupt(format!("range [{start}, {end}) not covered by chunks")));
    }
    Ok(out)
}

/// An entry of [`FsClient::answer_many`] on the replica ladder: its spec's
/// index, its owner, and the error its last rung ended with.
struct Rung {
    slot: usize,
    owner: usize,
    last: Option<FsError>,
}

/// Seek origin for [`FsClient::lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From the start of the file (`SEEK_SET`).
    Set,
    /// From the current position (`SEEK_CUR`).
    Cur,
    /// From the end of the file (`SEEK_END`).
    End,
}

enum OpenFile {
    Read { path: String, data: Arc<Vec<u8>>, pos: usize },
    Write { path: String, buf: Vec<u8> },
}

/// An open directory stream (`DIR*`).
pub struct DirStream {
    entries: Vec<String>,
    pos: usize,
}

impl DirStream {
    /// `readdir()`: next entry name, or `None` at end of stream.
    pub fn next_entry(&mut self) -> Option<&str> {
        let e = self.entries.get(self.pos)?;
        self.pos += 1;
        Some(e)
    }

    /// Remaining + consumed entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Client-side instrument handles, resolved once at construction so the
/// hot path records through `Arc`s instead of registry lookups.
struct ClientMetrics {
    get_latency: Arc<Histogram>,
    stat_latency: Arc<Histogram>,
    rpc_latency: Arc<Histogram>,
    rpc_retries: Arc<Counter>,
    fabric_bytes_sent: Arc<Gauge>,
    fabric_bytes_received: Arc<Gauge>,
    fabric_msgs_sent: Arc<Gauge>,
    get_many_latency: Arc<Histogram>,
    get_many_batches: Arc<Counter>,
    get_many_entries: Arc<Counter>,
    get_many_fallbacks: Arc<Counter>,
    cache_hits: Arc<Gauge>,
    cache_misses: Arc<Gauge>,
    cache_evictions: Arc<Gauge>,
    cache_resident: Arc<Gauge>,
    cache_shard_count: Arc<Gauge>,
    cache_shard_hot_bytes: Arc<Gauge>,
    cache_shard_spread: Arc<Histogram>,
    bufpool_hits: Arc<Gauge>,
    bufpool_misses: Arc<Gauge>,
    bufpool_returns: Arc<Gauge>,
    bufpool_idle_bytes: Arc<Gauge>,
    // The §II-B call mix: `client.posix.<call>.calls`, plus the bytes
    // reads deliver and writes accept.
    posix_open: Arc<Counter>,
    posix_close: Arc<Counter>,
    posix_read: Arc<Counter>,
    posix_read_bytes: Arc<Counter>,
    posix_lseek: Arc<Counter>,
    posix_write: Arc<Counter>,
    posix_write_bytes: Arc<Counter>,
    posix_stat: Arc<Counter>,
    posix_readdir: Arc<Counter>,
}

impl ClientMetrics {
    fn resolve(state: &NodeState) -> Self {
        let m = &state.metrics;
        ClientMetrics {
            get_latency: m.histogram("client.get.latency_us"),
            stat_latency: m.histogram("client.stat.latency_us"),
            rpc_latency: m.histogram("fabric.rpc.latency_us"),
            rpc_retries: m.counter("fabric.rpc.retries"),
            fabric_bytes_sent: m.gauge("fabric.bytes_sent"),
            fabric_bytes_received: m.gauge("fabric.bytes_received"),
            fabric_msgs_sent: m.gauge("fabric.msgs_sent"),
            get_many_latency: m.histogram("client.get_many.latency_us"),
            get_many_batches: m.counter("client.get_many.batches"),
            get_many_entries: m.counter("client.get_many.entries"),
            get_many_fallbacks: m.counter("client.get_many.fallbacks"),
            cache_hits: m.gauge("cache.hits"),
            cache_misses: m.gauge("cache.misses"),
            cache_evictions: m.gauge("cache.evictions"),
            cache_resident: m.gauge("cache.resident_bytes"),
            cache_shard_count: m.gauge("cache.shard.count"),
            cache_shard_hot_bytes: m.gauge("cache.shard.hot_bytes"),
            cache_shard_spread: m.histogram("cache.shard.resident_bytes"),
            bufpool_hits: m.gauge("bufpool.take.hits"),
            bufpool_misses: m.gauge("bufpool.take.misses"),
            bufpool_returns: m.gauge("bufpool.put.returns"),
            bufpool_idle_bytes: m.gauge("bufpool.idle.bytes"),
            posix_open: m.counter("client.posix.open.calls"),
            posix_close: m.counter("client.posix.close.calls"),
            posix_read: m.counter("client.posix.read.calls"),
            posix_read_bytes: m.counter("client.posix.read.bytes"),
            posix_lseek: m.counter("client.posix.lseek.calls"),
            posix_write: m.counter("client.posix.write.calls"),
            posix_write_bytes: m.counter("client.posix.write.bytes"),
            posix_stat: m.counter("client.posix.stat.calls"),
            posix_readdir: m.counter("client.posix.readdir.calls"),
        }
    }

    /// Count one `read()` that delivered `bytes`.
    fn count_read(&self, bytes: u64) {
        self.posix_read.inc();
        self.posix_read_bytes.add(bytes);
    }
}

/// One entry produced by [`FsClient::fetch_many_raw`]: either already
/// decompressed (a cache or write-store hit) or still compressed (this
/// node's inputs, a remote daemon or the read-through copy). Finishing —
/// decompression plus cache insertion — is deferred to
/// [`FsClient::finish_read`] /
/// [`FsClient::finish_entry`], which may run on a *different* thread;
/// that is how the prefetch pipeline fans decompression out over its I/O
/// workers instead of serialising it per file.
///
/// A `Ready` entry holds one cache open-count on the caller's behalf:
/// pass it to `finish_read` (which releases it) or balance it with
/// [`FsClient::release`]; dropping it on the floor pins the entry in the
/// cache until it is purged.
pub enum RawEntry {
    /// Decompressed and resident in the cache, open-count held.
    Ready(Arc<Vec<u8>>),
    /// Compressed payload awaiting decompression and cache insertion.
    Packed {
        /// Codec of `bytes`.
        codec: CodecId,
        /// Uncompressed length.
        size: usize,
        /// The compressed bytes.
        bytes: Arc<Vec<u8>>,
        /// Batch request id, stamped into the decompress span (0 when
        /// the batch was untraced).
        request: u64,
    },
}

/// A POSIX-style handle onto the FanStore namespace for one process (one
/// training I/O thread can clone its own).
pub struct FsClient {
    state: Arc<NodeState>,
    service: RemoteSender,
    fds: Mutex<HashMap<i32, OpenFile>>,
    next_fd: AtomicU64,
    trace: Option<Arc<TraceRecorder>>,
    failover: FailoverConfig,
    /// Ring-replication rounds the cluster's placement granted (replica
    /// count − 1): fixes every ladder's order via [`replicas_of`].
    replica_rounds: usize,
    read_through: Option<Arc<HashMap<String, LocalObject>>>,
    metrics: ClientMetrics,
}

impl FsClient {
    /// Build a client over a node's state and a send handle on the
    /// service channel, recovering under `failover` over `replica_rounds`
    /// granted ring-replication rounds.
    pub(crate) fn new(
        state: Arc<NodeState>,
        service: RemoteSender,
        failover: FailoverConfig,
        replica_rounds: usize,
    ) -> Self {
        let metrics = ClientMetrics::resolve(&state);
        FsClient {
            state,
            service,
            fds: Mutex::new(HashMap::new()),
            next_fd: AtomicU64::new(3),
            trace: None,
            failover,
            replica_rounds,
            read_through: None,
            metrics,
        }
    }

    /// Attach a trace recorder: subsequent operations record their
    /// request spans into it.
    pub fn with_trace(mut self, trace: Arc<TraceRecorder>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attach a read-through copy of every input (models falling back to
    /// the shared file system): the last resort after every replica failed.
    pub fn with_read_through(mut self, copy: Arc<HashMap<String, LocalObject>>) -> Self {
        self.read_through = Some(copy);
        self
    }

    /// The attached trace recorder, if any.
    pub fn trace(&self) -> Option<&Arc<TraceRecorder>> {
        self.trace.as_ref()
    }

    /// Record one request span into the trace (no-op without a trace).
    #[inline]
    fn span(&self, request: u64, stage: &str, start_us: u64) {
        if let Some(t) = &self.trace {
            t.record_span(SpanEvent {
                request,
                rank: self.state.rank as u32,
                stage: stage.to_string(),
                start_us,
                dur_us: now_us().saturating_sub(start_us),
            });
        }
    }

    /// Refresh the fabric traffic gauges from the channel's counters so a
    /// snapshot taken mid-run reflects current totals.
    fn sync_fabric_gauges(&self) {
        let stats = self.service.stats();
        self.metrics.fabric_bytes_sent.set(stats.bytes_sent.load(Ordering::Relaxed));
        self.metrics.fabric_bytes_received.set(stats.bytes_received.load(Ordering::Relaxed));
        self.metrics.fabric_msgs_sent.set(stats.msgs_sent.load(Ordering::Relaxed));
    }

    /// The node rank this client runs on.
    pub fn rank(&self) -> usize {
        self.state.rank
    }

    /// Number of nodes in the store.
    pub fn nodes(&self) -> usize {
        self.state.size
    }

    /// Shared node state (for inspecting counters in tests/benches).
    pub fn state(&self) -> &Arc<NodeState> {
        &self.state
    }

    fn alloc_fd(&self) -> i32 {
        self.next_fd.fetch_add(1, Ordering::Relaxed) as i32
    }

    /// `open(path, O_RDONLY)`: locate the file (cache → this node →
    /// remote daemon, Figure 2), decompress if needed, and return a file
    /// descriptor positioned at offset 0.
    pub fn open(&self, path: &str) -> Result<i32, FsError> {
        self.metrics.posix_open.inc();
        let data = self.fetch(path)?;
        let fd = self.alloc_fd();
        self.fds.lock().insert(fd, OpenFile::Read { path: path.to_string(), data, pos: 0 });
        Ok(fd)
    }

    /// Run one read operation as one request: a fresh
    /// [`NodeState::next_request_id`], an optional latency histogram and a
    /// `root` span (plus whatever child spans `body` records under the id
    /// it is handed).
    fn read_op<T>(
        &self,
        root: &str,
        latency: Option<&Histogram>,
        body: impl FnOnce(u64) -> T,
    ) -> T {
        let request = self.state.next_request_id();
        let start = now_us();
        let out = body(request);
        if let Some(h) = latency {
            h.record_with_exemplar(now_us().saturating_sub(start), request);
        }
        self.span(request, root, start);
        out
    }

    /// Fetch decompressed contents, populating the cache (shared by
    /// `open` and `read_whole`): one `client.get` request whose latency
    /// lands in `client.get.latency_us`. A cache hit counts as a local
    /// open; a miss decodes the answer into the cache.
    fn fetch(&self, path: &str) -> Result<Arc<Vec<u8>>, FsError> {
        self.read_op("client.get", Some(&self.metrics.get_latency), |request| {
            if let Some(hit) = self.state.cache.open(path) {
                self.state.stats.local_opens.inc();
                return Ok(hit);
            }
            let (spec, mut got) = ([GetManySpec::whole(path)], [None]);
            self.answer_many(&spec, &mut got, request, |_, item, obj| {
                self.cache_whole(path, item, obj, request)
            });
            got[0].take().expect("answer_many answers every spec")
        })
    }

    /// The one read path past the cache (Fig. 2) for a batch and a single
    /// read (a batch of one) alike, answering every spec whose `out` slot
    /// is empty: this node's bytes ([`NodeState::lookup`]; a local answer
    /// is final), then ladder rounds — round *k* sends each owner one
    /// GET_MANY, chunked at [`MAX_BATCH`], to step *k* of its ladder
    /// ([`FsClient::rung`]) with all its unanswered specs, under one seeded
    /// backoff per retry round and `retry_budget` in rounds — then the
    /// read-through copy. Every source is planned by
    /// [`LocalObject::plan`]; `finish(i, item, obj)` turns the answer into
    /// spec `i`'s result (`obj`: the stored object `item` borrows, `None`
    /// for a reply) inside the round, so a payload that fails a CRC or its
    /// decode poisons only its own entry, which rides the next round. A
    /// rejected range is final: read-through cannot fix EINVAL.
    fn answer_many<T>(
        &self,
        specs: &[GetManySpec<'_>],
        out: &mut [Option<Result<T, FsError>>],
        request: u64,
        mut finish: impl FnMut(usize, GetManyItem<'_>, Option<&LocalObject>) -> Result<T, FsError>,
    ) {
        let stats = &self.state.stats;
        let (mut ladder, mut fallen) = (Vec::new(), Vec::new());
        for (i, spec) in specs.iter().enumerate() {
            if out[i].is_some() {
                continue;
            }
            match self.state.lookup(spec.path) {
                Ok(Some(obj)) => {
                    let got = obj.plan(spec).and_then(|item| finish(i, item, Some(&obj)));
                    if got.is_ok() {
                        stats.local_opens.inc();
                    }
                    out[i] = Some(got);
                }
                Ok(None) => match self.state.owner_of(spec.path) {
                    Some(owner) => ladder.push(Rung { slot: i, owner, last: None }),
                    None => out[i] = Some(Err(FsError::NotFound(spec.path.to_string()))),
                },
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        ladder.sort_by_key(|r| r.owner);
        let cfg = &self.failover;
        for round in 0u32.. {
            let mut backoff = round > 0;
            let groups = ladder.chunk_by_mut(|a, b| a.owner == b.owner);
            for chunk in groups.flat_map(|group| group.chunks_mut(MAX_BATCH)) {
                let mut to = self.rung(chunk[0].owner, round);
                if to.is_some() && round > cfg.retry_budget {
                    stats.retry_exhausted.add(chunk.len() as u64);
                    to = None;
                }
                if to.is_some() && std::mem::take(&mut backoff) {
                    std::thread::sleep(backoff_delay(cfg, specs[chunk[0].slot].path, round));
                }
                let Some(to) = to else {
                    // Off the ladder: at its end or by the budget.
                    for r in chunk {
                        // Nothing asked: metadata says the bytes are here.
                        let path = specs[r.slot].path;
                        let last = r.last.take().unwrap_or_else(|| FsError::NotFound(path.into()));
                        out[r.slot] = Some(Err(last));
                        fallen.push(r.slot);
                    }
                    continue;
                };
                if round > 0 {
                    self.metrics.rpc_retries.inc();
                    self.metrics.get_many_fallbacks.add(chunk.len() as u64);
                }
                let wire: Vec<GetManySpec> = chunk.iter().map(|r| specs[r.slot]).collect();
                self.get_many_rpc(&wire, to, request, |j, item| {
                    let r = &mut chunk[j];
                    match item.and_then(|item| finish(r.slot, item, None)) {
                        // Retryable on the next rung: NotFound, Comm, Corrupt too.
                        Err(e) if !matches!(e, FsError::BadRange(_)) => {
                            if let FsError::Corrupt(_) = e {
                                stats.crc_failures.inc();
                            }
                            r.last = Some(e);
                        }
                        got => {
                            if round > 0 && got.is_ok() {
                                // Answered by a retry or a replica, not the owner.
                                stats.degraded_reads.inc();
                            }
                            out[r.slot] = Some(got);
                        }
                    }
                });
            }
            ladder.retain(|r| out[r.slot].is_none());
            if ladder.is_empty() {
                break;
            }
        }
        // The last resort: the read-through copy of the paper's shared file
        // system, which holds every partition.
        for i in fallen {
            let Some(obj) = self.read_through.as_ref().and_then(|c| c.get(specs[i].path)) else {
                continue;
            };
            let got = obj.plan(&specs[i]).and_then(|item| finish(i, item, Some(obj)));
            if got.is_ok() {
                stats.read_through_reads.inc();
                stats.degraded_reads.inc();
            }
            out[i] = Some(got);
        }
    }

    /// Step `round` of `owner`'s ladder, or `None` past its end: its ring
    /// replicas in [`replicas_of`] order, `attempts_per_replica` rounds
    /// each. This node is never a step, so its own ladder is empty.
    fn rung(&self, owner: usize, round: u32) -> Option<usize> {
        if owner == self.state.rank {
            return None;
        }
        let step = (round / self.failover.attempts_per_replica.max(1)) as usize;
        let replicas = replicas_of(owner, self.state.size, self.replica_rounds).into_iter();
        replicas.filter(|&r| r != self.state.rank).nth(step)
    }

    /// Install a whole-object answer in the cache — the file's own bytes
    /// as they are, a packed payload once decompressed — holding one
    /// open-count.
    fn cache_whole(
        &self,
        path: &str,
        item: GetManyItem<'_>,
        obj: Option<&LocalObject>,
        request: u64,
    ) -> Result<Arc<Vec<u8>>, FsError> {
        let GetManyItem::Whole(codec, stat, data) = item else {
            return Err(FsError::Comm(format!("{path}: PARTIAL reply to a whole-file read")));
        };
        let plain = match obj.and_then(LocalObject::plain_bytes) {
            Some(plain) => Arc::clone(plain),
            None => {
                Arc::new(self.decompress_span(path, codec, data, stat.size as usize, request)?)
            }
        };
        Ok(self.state.cache.insert(path, plain))
    }

    /// Decompress a fetched payload; under a trace the leg becomes a
    /// `client.decompress` span of `request` (and the codec histograms
    /// see it either way).
    fn decompress_span(
        &self,
        path: &str,
        codec: CodecId,
        data: &[u8],
        size: usize,
        request: u64,
    ) -> Result<Vec<u8>, FsError> {
        let dec_start = (self.trace.is_some() && request != 0).then(now_us);
        let plain = self.state.decompress_timed(codec, data, size, path)?;
        if let Some(start) = dec_start {
            self.span(request, "client.decompress", start);
        }
        Ok(plain)
    }

    /// One GET_MANY round trip to `rank`: the only place a read request is
    /// encoded and its reply decoded. Entry `j`'s outcome goes to
    /// `each(j, ..)`, borrowing the reply buffer where it landed; a failed
    /// rpc or a damaged outer frame is every entry's outcome. The leg lands
    /// in `fabric.rpc.latency_us` / a `fabric.rpc` span; a timed-out rpc is
    /// counted here, once.
    fn get_many_rpc(
        &self,
        specs: &[GetManySpec],
        rank: usize,
        request: u64,
        mut each: impl FnMut(usize, Result<GetManyItem<'_>, FsError>),
    ) {
        let payload = encode_get_many_request(specs);
        let rpc_start = now_us();
        let reply = self.rpc(rank, tags::GET_MANY, payload, request);
        self.metrics.rpc_latency.record_with_exemplar(now_us().saturating_sub(rpc_start), request);
        self.span(request, "fabric.rpc", rpc_start);
        self.sync_fabric_gauges();
        let what = || format!("GET_MANY {} from rank {rank}", specs[0].path);
        let decoded = reply.map_err(|e| self.rpc_error(&what(), e)).and_then(|reply| {
            for (j, item) in decode_get_many_reply(&reply, specs.len())?.into_iter().enumerate() {
                if let Ok(item) = &item {
                    let stored = match item {
                        GetManyItem::Whole(.., data) => data.len(),
                        GetManyItem::Partial(p) => p.stored_bytes(),
                    };
                    self.state.stats.remote_opens.inc();
                    self.state.stats.remote_bytes.add(stored as u64);
                }
                each(j, item);
            }
            Ok(())
        });
        if let Err(e) = decoded {
            (0..specs.len()).for_each(|j| each(j, Err(e.clone())));
        }
    }

    /// Batched fetch (the `GetMany` data path): probe the cache for every
    /// path, then answer the misses on the one read path
    /// ([`FsClient::answer_many`]): one GET_MANY per owner and ladder round.
    /// Cache hits and output files come back `Ready`; packed entries, local
    /// or remote, come back `Packed` so the caller can fan decompression
    /// out over worker threads. Results align with `paths`. One request id
    /// covers the batch: the `client.get_many` root span, a `fabric.rpc`
    /// child per rpc and the deferred `client.decompress` children.
    ///
    /// A missing, corrupted or unreachable entry fails alone, counting what
    /// [`FsClient::read_whole`] counts. Decode is deferred, so at-rest
    /// chunk damage under a valid frame surfaces from
    /// [`FsClient::finish_read`] as `Corrupt`, not failed over.
    pub fn fetch_many_raw(&self, paths: &[String]) -> Vec<Result<RawEntry, FsError>> {
        if paths.is_empty() {
            return Vec::new();
        }
        let latency = Some(&*self.metrics.get_many_latency);
        let out = self.read_op("client.get_many", latency, |request| {
            // Cache pass: a hit is `Ready`, open-count held, and counts as a
            // local open; a miss stays empty for `answer_many`.
            let mut out: Vec<_> = paths
                .iter()
                .map(|path| {
                    self.metrics.posix_open.inc();
                    let hit = self.state.cache.open(path)?;
                    self.state.stats.local_opens.inc();
                    Some(Ok(RawEntry::Ready(hit)))
                })
                .collect();
            let specs: Vec<GetManySpec> = paths.iter().map(|p| GetManySpec::whole(p)).collect();
            self.answer_many(&specs, &mut out, request, |i, item, obj| {
                let path = &paths[i];
                if let Some(plain) = obj.and_then(LocalObject::plain_bytes) {
                    return Ok(RawEntry::Ready(self.state.cache.insert(path, Arc::clone(plain))));
                }
                let GetManyItem::Whole(codec, stat, data) = item else {
                    return Err(FsError::Comm(format!(
                        "{path}: PARTIAL reply to a whole-file read"
                    )));
                };
                // Packed for a worker to decode: a stored object's payload is
                // shared, a reply's copied once.
                let bytes = obj.map_or_else(|| Arc::new(data.to_vec()), |o| Arc::clone(&o.data));
                Ok(RawEntry::Packed { codec, size: stat.size as usize, bytes, request })
            });
            out.into_iter().map(|r| r.expect("answer_many answers every spec")).collect()
        });
        self.metrics.get_many_batches.inc();
        self.metrics.get_many_entries.add(paths.len() as u64);
        // Also for an all-local batch: writes move the fabric too.
        self.sync_fabric_gauges();
        self.sync_cache_gauges();
        out
    }

    /// Finish one [`RawEntry`]: decompress a `Packed` entry (recording
    /// the `client.decompress` span against its batch request) and insert
    /// it into the cache. The returned buffer holds one cache open-count;
    /// balance it with [`FsClient::release`].
    pub fn finish_entry(&self, path: &str, entry: RawEntry) -> Result<Arc<Vec<u8>>, FsError> {
        match entry {
            RawEntry::Ready(data) => Ok(data),
            RawEntry::Packed { codec, size, bytes, request } => {
                let plain = self.decompress_span(path, codec, &bytes, size, request)?;
                Ok(self.state.cache.insert(path, Arc::new(plain)))
            }
        }
    }

    /// Finish a [`RawEntry`] into owned bytes and release its cache
    /// reference (the batched equivalent of [`FsClient::read_whole`]'s
    /// read-to-end + close).
    pub fn finish_read(&self, path: &str, entry: RawEntry) -> Result<Vec<u8>, FsError> {
        let data = self.finish_entry(path, entry)?;
        Ok(self.read_to_end_and_close(path, data))
    }

    /// Read-to-end + close on an open cache reference, into owned bytes
    /// (the shared tail of [`FsClient::read_whole`] and
    /// [`FsClient::finish_read`]).
    fn read_to_end_and_close(&self, path: &str, data: Arc<Vec<u8>>) -> Vec<u8> {
        self.metrics.count_read(data.len() as u64);
        self.state.cache.close(path);
        self.metrics.posix_close.inc();
        // Under the eager-release cache policy the close above dropped the
        // cache's reference, so ours is the last one and the buffer moves
        // out with no copy. When the entry stays cached (or another reader
        // holds it) the copy is unavoidable — but it is sourced from the
        // scratch pool, so a steady-state loop that recycles its outputs
        // still performs no allocation.
        Arc::try_unwrap(data).unwrap_or_else(|shared| {
            let mut out = self.state.pool.take(shared.len());
            out.extend_from_slice(&shared);
            out
        })
    }

    /// Hand a buffer obtained from [`FsClient::finish_read`] /
    /// [`FsClient::read_many`] back to the node's scratch pool once its
    /// contents have been consumed. Optional — a dropped buffer is merely
    /// an allocation on the next decode — but a loop that recycles runs
    /// allocation-free at steady state (see the pool-stats test).
    pub fn recycle(&self, buf: Vec<u8>) {
        self.state.pool.put(buf);
    }

    /// Release the cache reference held by a finished entry (pairs with
    /// [`FsClient::finish_entry`]).
    pub fn release(&self, path: &str) {
        self.state.cache.close(path);
    }

    /// Batched convenience read: [`FsClient::fetch_many_raw`] plus
    /// in-place finishing. Results align with `paths`; a failed entry
    /// carries its own error while the rest of the batch still delivers.
    pub fn read_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, FsError>> {
        let raw = self.fetch_many_raw(paths);
        paths.iter().zip(raw).map(|(p, r)| r.and_then(|e| self.finish_read(p, e))).collect()
    }

    /// Refresh the cache gauges (`cache.*`, `cache.shard.*`) from the
    /// sharded cache's merged and per-shard counters.
    fn sync_cache_gauges(&self) {
        let merged = self.state.cache.stats();
        self.metrics.cache_hits.set(merged.hits.load(Ordering::Relaxed));
        self.metrics.cache_misses.set(merged.misses.load(Ordering::Relaxed));
        self.metrics.cache_evictions.set(merged.evictions.load(Ordering::Relaxed));
        let snaps = self.state.cache.shard_snapshots();
        self.metrics.cache_resident.set(snaps.iter().map(|s| s.resident_bytes).sum());
        self.metrics.cache_shard_count.set(snaps.len() as u64);
        let hot = snaps.iter().map(|s| s.resident_bytes).max().unwrap_or(0);
        self.metrics.cache_shard_hot_bytes.set(hot);
        self.metrics.cache_shard_spread.record(hot);
        let pool = self.state.pool.stats();
        self.metrics.bufpool_hits.set(pool.hits);
        self.metrics.bufpool_misses.set(pool.misses);
        self.metrics.bufpool_returns.set(pool.returns);
        self.metrics.bufpool_idle_bytes.set(pool.idle_bytes as u64);
    }

    /// `open(path, O_WRONLY|O_CREAT)`: start a write-once output file.
    pub fn create(&self, path: &str) -> Result<i32, FsError> {
        // A path the write store cannot hold is refused before an fd
        // exists. Write-once: a path the namespace knows, or whose bytes
        // this node stores — after a restart, only the store knows them.
        crate::pack::check_path(path)?;
        let known = self.state.meta.read().get(path).is_some();
        if known || self.state.holds(path) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let fd = self.alloc_fd();
        self.fds.lock().insert(fd, OpenFile::Write { path: path.to_string(), buf: Vec::new() });
        Ok(fd)
    }

    /// `read(fd, buf)`: copy up to `buf.len()` bytes from the current
    /// position; returns bytes read (0 at EOF).
    pub fn read(&self, fd: i32, buf: &mut [u8]) -> Result<usize, FsError> {
        let mut fds = self.fds.lock();
        match fds.get_mut(&fd) {
            Some(OpenFile::Read { data, pos, .. }) => {
                // The offset may sit past EOF (lseek allows it); clamp the
                // slice start so such reads return 0 instead of panicking.
                let start = (*pos).min(data.len());
                let n = buf.len().min(data.len() - start);
                buf[..n].copy_from_slice(&data[start..start + n]);
                *pos += n;
                self.metrics.count_read(n as u64);
                Ok(n)
            }
            Some(OpenFile::Write { path, .. }) => Err(FsError::ReadOnly(path.clone())),
            None => Err(FsError::BadFd(fd)),
        }
    }

    /// `write(fd, buf)`: append to an output file's write cache.
    pub fn write(&self, fd: i32, buf: &[u8]) -> Result<usize, FsError> {
        let mut fds = self.fds.lock();
        match fds.get_mut(&fd) {
            Some(OpenFile::Write { buf: wbuf, .. }) => {
                self.metrics.posix_write.inc();
                self.metrics.posix_write_bytes.add(buf.len() as u64);
                wbuf.extend_from_slice(buf);
                Ok(buf.len())
            }
            Some(OpenFile::Read { path, .. }) => Err(FsError::ReadOnly(path.clone())),
            None => Err(FsError::BadFd(fd)),
        }
    }

    /// `lseek(fd, offset, whence)`: reposition a read descriptor; returns
    /// the new offset.
    pub fn lseek(&self, fd: i32, offset: i64, whence: Whence) -> Result<u64, FsError> {
        self.metrics.posix_lseek.inc();
        let mut fds = self.fds.lock();
        match fds.get_mut(&fd) {
            Some(OpenFile::Read { data, pos, .. }) => {
                let base = match whence {
                    Whence::Set => 0i64,
                    Whence::Cur => *pos as i64,
                    Whence::End => data.len() as i64,
                };
                // A negative or overflowing target is EINVAL, as POSIX
                // `lseek` answers; the position stays where it was.
                let target = base
                    .checked_add(offset)
                    .filter(|t| *t >= 0)
                    .ok_or_else(|| FsError::BadRange(format!("lseek({fd}): {base} + {offset}")))?;
                *pos = target as usize; // seeking past EOF is legal
                Ok(*pos as u64)
            }
            Some(OpenFile::Write { path, .. }) => Err(FsError::ReadOnly(path.clone())),
            None => Err(FsError::BadFd(fd)),
        }
    }

    /// `close(fd)`: for reads, releases the cache reference; for writes,
    /// finalises the file (immutable from now on) and forwards its
    /// metadata to the owner rank (§V-D).
    pub fn close(&self, fd: i32) -> Result<(), FsError> {
        self.metrics.posix_close.inc();
        let entry = self.fds.lock().remove(&fd).ok_or(FsError::BadFd(fd))?;
        match entry {
            OpenFile::Read { path, data, .. } => {
                // Drop the fd's reference *before* telling the cache: under
                // the eager-release policy the cache then holds the last
                // one and can recycle the buffer into the scratch pool.
                drop(data);
                self.state.cache.close(&path);
                Ok(())
            }
            OpenFile::Write { path, buf } => {
                // The finalisation (durable local landing + metadata
                // forward) is the write's latency-bearing leg: one
                // `client.put` span.
                let request = self.state.next_request_id();
                let start = now_us();
                let out = self.close_write(&path, buf);
                self.span(request, "client.put", start);
                out
            }
        }
    }

    /// Finalise one written file: land it in the node's write store and
    /// forward its metadata to the owner rank. The file stays readable
    /// from this node even if the forward is lost.
    fn close_write(&self, path: &str, buf: Vec<u8>) -> Result<(), FsError> {
        let entry = self.state.finalize_write(path, buf)?;
        self.forward_meta(path, tags::PUT_META, encode_single(path, &entry));
        Ok(())
    }

    /// `stat(path)`: answered from the replicated local metadata; for
    /// output files written elsewhere, falls back to the metadata owner
    /// rank.
    pub fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        let start = now_us();
        let out = self.stat_inner(path);
        self.metrics.stat_latency.record(now_us().saturating_sub(start));
        out
    }

    fn stat_inner(&self, path: &str) -> Result<FileStat, FsError> {
        self.metrics.posix_stat.inc();
        if let Some(s) = self.state.meta.read().stat(path) {
            return Ok(s);
        }
        // An unreachable owner is a degraded metadata view: the path is
        // simply not visible from here.
        let owner = meta_owner(path, self.state.size);
        if owner != self.state.rank {
            let reply = self.meta_rpc(owner, tags::GET_META, path, path.as_bytes().to_vec());
            if let Some(meta) = reply.as_deref().ok().and_then(|r| r.strip_prefix(&[status::OK])) {
                self.state.merge_meta(meta)?;
                if let Some(s) = self.state.meta.read().stat(path) {
                    return Ok(s);
                }
            }
        }
        Err(FsError::NotFound(path.to_string()))
    }

    /// `opendir(path)`: snapshot of the directory entries.
    pub fn opendir(&self, path: &str) -> Result<DirStream, FsError> {
        self.metrics.posix_readdir.inc();
        self.state
            .meta
            .read()
            .readdir(path)
            .map(|entries| DirStream { entries, pos: 0 })
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// `closedir(stream)`: release a directory stream (drop suffices; the
    /// method exists to mirror Listing 1's interface).
    pub fn closedir(&self, _stream: DirStream) {}

    /// Convenience: read an entire file (open + read-to-end + close).
    pub fn read_whole(&self, path: &str) -> Result<Vec<u8>, FsError> {
        self.metrics.posix_open.inc();
        let data = self.fetch(path)?;
        Ok(self.read_to_end_and_close(path, data))
    }

    /// Convenience: write an entire output file (create + write + close).
    pub fn write_whole(&self, path: &str, data: &[u8]) -> Result<(), FsError> {
        let fd = self.create(path)?;
        self.write(fd, data)?;
        self.close(fd)
    }

    /// Read bytes `[start, end)` of `path` without materialising the
    /// whole file. For range-chunked objects only the covering chunks
    /// move: cache-resident chunks are served in place, the rest decode
    /// from wherever the read path finds them — this node, one GET_MANY
    /// range entry on the replica ladder, or the read-through copy. They
    /// land in the cache as partial residency, so overlapping ranges hit
    /// without refetching. Objects packed whole are fetched whole and
    /// sliced — correct, just not cheaper.
    ///
    /// `[start, end)` must be non-empty and lie inside the file;
    /// anything else is [`FsError::BadRange`] (EINVAL), never a panic.
    pub fn read_range(&self, path: &str, start: u64, end: u64) -> Result<Vec<u8>, FsError> {
        self.read_op("client.range", None, |request| {
            let stat = self.stat(path)?;
            if start >= end || end > stat.size {
                let size = stat.size;
                return Err(FsError::BadRange(format!("{path}: [{start}, {end}) of {size}")));
            }
            self.metrics.count_read(end - start);
            // Cache: full entries slice in place, partial entries serve the
            // range when every covering chunk is resident.
            if let Some(hit) = self.state.cache.open_range(path, start, end) {
                return Ok(hit);
            }
            let (spec, mut got) = ([GetManySpec::range(path, start, end)], [None]);
            self.answer_many(&spec, &mut got, request, |_, item, obj| match item {
                // The covering chunks: decode them into the cache as partial
                // residency, then assemble the window.
                GetManyItem::Partial(p) => {
                    let mut raw = Vec::with_capacity(p.chunks.len());
                    for c in &p.chunks {
                        let data = Arc::new(c.decode(p.inner_codec, p.chunk_size)?);
                        let cache = &self.state.cache;
                        cache.insert_chunk(path, p.chunk_size, p.raw_len, c.index, data.clone());
                        raw.push((c.offset, data));
                    }
                    let t = now_us();
                    let out = assemble(raw.iter().map(|(at, data)| (*at, &data[..])), start, end);
                    self.span(request, "client.assemble", t);
                    out
                }
                // A whole-object answer: decode it all, cache it all, slice
                // the window.
                whole => {
                    let shared = self.cache_whole(path, whole, obj, request)?;
                    let out = assemble([(0, &shared[..])], start, end);
                    self.state.cache.close(path);
                    out
                }
            });
            got[0].take().expect("answer_many answers every spec")
        })
    }

    /// Read a *fidelity-bounded* approximation of `path`: for progressive
    /// objects, only tiers `0..=min_tier` are decoded (wherever the read
    /// path finds them — this node, a replica, the read-through copy),
    /// trading accuracy for bytes moved. Objects not packed progressively
    /// come back at full fidelity. The result is NEVER cached — the cache
    /// holds exact bytes only, so a later full-fidelity read of the same
    /// path cannot observe the approximation.
    pub fn read_whole_tier(&self, path: &str, min_tier: u8) -> Result<Vec<u8>, FsError> {
        self.metrics.count_read(0);
        self.read_op("client.get", None, |request| {
            let (spec, mut got) = ([GetManySpec::tiered(path, min_tier)], [None]);
            self.answer_many(&spec, &mut got, request, |_, item, _| match item {
                GetManyItem::Partial(p) => {
                    let tiers = p.chunks.iter().map(PartialChunk::verified);
                    let tiers: Vec<&[u8]> = tiers.collect::<Result<_, _>>()?;
                    fanstore_compress::progressive::decode_prefix(&tiers, p.raw_len as usize)
                        .map_err(|e| FsError::Corrupt(format!("{path}: tier decode: {e}")))
                }
                GetManyItem::Whole(codec, stat, data) => {
                    self.decompress_span(path, codec, data, stat.size as usize, request)
                }
            });
            got[0].take().expect("answer_many answers every spec")
        })
    }

    /// Translate an rpc error for `what` into the matching [`FsError`]:
    /// a dropped conduit or elapsed deadline both mean "unreachable".
    fn rpc_error(&self, what: &str, e: CommError) -> FsError {
        match e {
            CommError::Timeout | CommError::Disconnected => {
                self.state.stats.rpc_timeouts.inc();
                FsError::Timeout(what.to_string())
            }
            other => FsError::Comm(other.to_string()),
        }
    }

    /// The one rpc door: every remote call waits at most `rpc_timeout`,
    /// carrying `request` (0 = outside any traced request) on the envelope.
    fn rpc(
        &self,
        rank: usize,
        tag: Tag,
        payload: Vec<u8>,
        request: u64,
    ) -> Result<Vec<u8>, CommError> {
        self.service.rpc_with_id(rank, tag, payload, Some(self.failover.rpc_timeout), request)
    }

    /// One metadata-plane round trip (PUT_META, GET_META, UNLINK) about
    /// `path`: an unreachable rank is counted once, by
    /// [`FsClient::rpc_error`], and a reply other than OK or NOT_FOUND is
    /// a refusal.
    fn meta_rpc(
        &self,
        rank: usize,
        tag: Tag,
        path: &str,
        payload: Vec<u8>,
    ) -> Result<Vec<u8>, FsError> {
        let what = || format!("metadata rpc {tag} for {path} at rank {rank}");
        let reply = self.rpc(rank, tag, payload, 0);
        let reply = reply.map_err(|e| self.rpc_error(&what(), e))?;
        match reply.first() {
            Some(&(status::OK | status::NOT_FOUND)) => Ok(reply),
            _ => Err(FsError::Comm(format!("{} refused", what()))),
        }
    }

    /// Forward a metadata change (`close_write`'s PUT_META, `unlink`'s
    /// UNLINK) to `path`'s metadata owner (§V-D). Degraded mode: a lost
    /// forward costs a `meta_forward_failures` count, never the operation.
    fn forward_meta(&self, path: &str, tag: Tag, payload: Vec<u8>) {
        let owner = meta_owner(path, self.state.size);
        if owner != self.state.rank && self.meta_rpc(owner, tag, path, payload).is_err() {
            self.state.stats.meta_forward_failures.inc();
        }
    }

    /// Push a whole object into `rank`'s write store (checkpoint
    /// replication): the peer can then serve GETs for `path` and keeps a
    /// durable copy across this rank's crash.
    pub fn put_remote(&self, rank: usize, path: &str, data: &[u8]) -> Result<(), FsError> {
        let payload = crate::daemon::encode_put(path, self.state.rank as u32, data);
        // The push is one request: a `client.put` root span with a
        // `fabric.rpc` child, and the request id rides the envelope so the
        // serving daemon's `daemon.write_serve` span joins the same tree
        // (`attrib` charges it to `serve`).
        let request = self.state.next_request_id();
        let start = now_us();
        let reply = self.rpc(rank, tags::PUT, payload, request);
        self.span(request, "fabric.rpc", start);
        let out =
            match reply.map_err(|e| self.rpc_error(&format!("PUT {path} to rank {rank}"), e))? {
                r if r.first() == Some(&status::OK) => Ok(()),
                _ => Err(FsError::Comm(format!("PUT {path} rejected by rank {rank}"))),
            };
        self.span(request, "client.put", start);
        out
    }

    /// `unlink(path)` for output files held on this node (checkpoint GC).
    /// The removal is forwarded to the rank `close_write` forwarded the
    /// file's metadata to, so that rank stops answering `stat` for it; an
    /// unreachable owner is counted and the unlink still succeeds, as a
    /// lost metadata forward does.
    pub fn unlink(&self, path: &str) -> Result<(), FsError> {
        if !self.state.remove_write(path)? {
            return Err(FsError::NotFound(path.to_string()));
        }
        self.forward_meta(path, tags::UNLINK, path.as_bytes().to_vec());
        Ok(())
    }

    /// Ask `rank` to unlink an output file it holds (GC of replicated
    /// checkpoint generations). A missing path reports success: the goal
    /// state — "not there" — already holds.
    pub fn unlink_remote(&self, rank: usize, path: &str) -> Result<(), FsError> {
        self.meta_rpc(rank, tags::UNLINK, path, path.as_bytes().to_vec()).map(drop)
    }

    /// Recursively enumerate the dataset the way a training program does
    /// at startup (§II-B1): `readdir` every directory, `stat` every file.
    /// Returns the file paths found under `root`.
    pub fn enumerate(&self, root: &str) -> Result<Vec<String>, FsError> {
        let mut files = Vec::new();
        let mut stack = vec![root.trim_end_matches('/').to_string()];
        while let Some(dir) = stack.pop() {
            let mut stream = self.opendir(&dir)?;
            while let Some(name) = stream.next_entry() {
                let full = if dir.is_empty() { name.to_string() } else { format!("{dir}/{name}") };
                let st = self.stat(&full)?;
                if st.is_dir() {
                    stack.push(full);
                } else {
                    files.push(full);
                }
            }
        }
        files.sort();
        Ok(files)
    }
}

/// The rank responsible for a path's *metadata* (write-forwarding target,
/// §V-D): stable hash of the path modulo node count.
pub fn meta_owner(path: &str, size: usize) -> usize {
    (fnv64(path) % size.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_rejects_overflowing_and_uncovered_chunks() {
        let (a, b) = (&[1u8, 2, 3][..], &[4u8, 5][..]);
        assert_eq!(assemble([(10, a), (13, b)], 11, 15).unwrap(), [2, 3, 4, 5]);
        // A whole file is the one chunk at offset 0.
        assert_eq!(assemble([(0, a)], 1, 3).unwrap(), [2, 3]);
        // A chunk at u64::MAX - 1, as a peer's frame may claim, neither
        // overflows nor panics.
        let got = assemble([(u64::MAX - 1, a)], 0, 2);
        assert!(matches!(got, Err(FsError::Corrupt(_))), "{got:?}");
        // A gap between chunks leaves the range uncovered.
        let got = assemble([(10, a), (14, b)], 11, 15);
        assert!(matches!(got, Err(FsError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn a_second_open_is_a_cache_hit_and_counts_as_a_local_open() {
        use crate::cluster::{ClusterConfig, FanStore};
        use crate::prep::{prepare, PrepConfig};
        let body = b"xxxxxxxxxx".repeat(20);
        let files = vec![("a/x.bin".to_string(), body.clone())];
        let packed = prepare(files, &PrepConfig { partitions: 1, ..Default::default() });
        let cfg = ClusterConfig { nodes: 1, ..Default::default() };
        FanStore::run(cfg, packed.partitions, |fs| {
            let (first, second) = (fs.open("a/x.bin").unwrap(), fs.open("a/x.bin").unwrap());
            let data = |fd| match &fs.fds.lock()[&fd] {
                OpenFile::Read { data, .. } => Arc::clone(data),
                OpenFile::Write { .. } => unreachable!("opened for reading"),
            };
            assert_eq!(&data(first)[..], &body[..]);
            assert!(Arc::ptr_eq(&data(first), &data(second)), "the second open shares the bytes");
            let s = fs.state();
            assert_eq!(s.cache.stats().hits.load(Ordering::Relaxed), 1);
            assert_eq!(s.stats.local_opens.get(), 2, "the hit counts as a local open");
            // Stats and registry agree: same underlying counter.
            assert_eq!(s.metrics.snapshot().counter("client.local.opens"), 2);
            fs.close(first).unwrap();
            fs.close(second).unwrap();
        });
    }

    #[test]
    fn meta_owner_is_stable_and_in_range() {
        for size in [1usize, 2, 7, 512] {
            for path in ["a", "out/ckpt_01.h5", "deep/nested/path/file.bin"] {
                let o = meta_owner(path, size);
                assert!(o < size);
                assert_eq!(o, meta_owner(path, size));
            }
        }
    }

    #[test]
    fn meta_owner_spreads_paths() {
        let owners: std::collections::HashSet<usize> =
            (0..100).map(|i| meta_owner(&format!("f{i}"), 16)).collect();
        assert!(owners.len() > 8, "hash should spread over ranks: {owners:?}");
    }

    #[test]
    fn backoff_is_bounded_exponential_and_deterministic() {
        let cfg = FailoverConfig {
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(16),
            seed: 9,
            ..Default::default()
        };
        // Deterministic: same (seed, path, attempt) -> same delay.
        assert_eq!(backoff_delay(&cfg, "a/b", 1), backoff_delay(&cfg, "a/b", 1));
        // Bounded: never beyond the cap plus the 25% jitter allowance.
        for attempt in 1..40 {
            let d = backoff_delay(&cfg, "a/b", attempt);
            assert!(d <= cfg.backoff_max.mul_f64(1.25), "attempt {attempt}: {d:?}");
        }
        // Exponential until the cap: attempt 5 wants 2ms << 4 = 32ms,
        // clamped to the 16ms cap.
        assert!(backoff_delay(&cfg, "a/b", 5) >= cfg.backoff_max);
        assert!(backoff_delay(&cfg, "a/b", 1) < Duration::from_millis(3));
        // Seeded jitter: a different seed shifts the delay.
        let other = FailoverConfig { seed: 10, ..cfg.clone() };
        assert_ne!(backoff_delay(&cfg, "a/b", 1), backoff_delay(&other, "a/b", 1));
    }
}
