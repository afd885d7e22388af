//! [`WalStore`]: the durable write path — WAL + memtable + compacted
//! pack segments behind bloom filters — and every node's one write store
//! (on a fresh `RamMedia`, purely in memory).
//!
//! ## Write path
//!
//! `put`/`unlink` append a CRC-framed record to the write-ahead log and
//! apply it to the memtable. Records buffer in memory until a *commit*
//! appends them to the medium in one batch and syncs — group commit.
//! With `commit_every = 1` every write is durable before it returns
//! (the daemon's ACK semantics); larger values amortise the modelled
//! fsync over a batch and relax durability to the last commit.
//!
//! ## Flush and compaction
//!
//! When the key and value bytes *applied since the last flush* cross
//! `memtable_budget`, the memtable flushes into an immutable segment —
//! pack-format entries behind a bloom filter ([`super::segment`]) — and
//! the new segment set is published via an atomic CRC-tailed manifest
//! ([`super::manifest`]), written last, exactly the checkpoint
//! generations' publish discipline. Only then is the log trimmed; a crash
//! between publish and trim merely replays records the manifest's
//! `trim_seq` already covers, and replay skips them by sequence. The
//! trigger counts applied bytes, not the memtable's live bytes: an
//! overwrite or an unlink *shrinks* the live set while the log it must
//! one day trim keeps growing, so a node fed put-then-unlink traffic
//! would hold a near-empty memtable over an unbounded log.
//!
//! Compaction is size-tiered. After a flush, the *run* starts at the
//! newest segment and takes in the next older one while that segment's
//! blob is no larger than the run's total so far; once the run holds
//! `compact_min_segments` segments it merges into one, which takes the
//! run's place at the front of the newest-first set, published the same
//! way. Flushes of similar size gather into one run, and a segment that
//! outweighs everything above it waits until as many bytes gather there,
//! so the bulk of the live set is rewritten far less often than every
//! few flushes. The price is space: a dead version in an older segment
//! stays on the medium until a run reaches it. A run that reaches the
//! oldest segment (and an explicit [`WalStore::compact`], which merges
//! every segment) drops superseded versions and tombstones; a shorter run
//! drops superseded versions and carries each winning tombstone that an
//! older segment still holds a version of — decided from the blooms and
//! index rows in memory — so that version stays shadowed. The merge runs
//! over the index rows; each input blob is read once, its length and CRC
//! are checked against the manifest, and the surviving versions' *stored*
//! bytes are copied into the output as they are — nothing is decoded or
//! re-encoded, and the CRC check is what keeps a verbatim copy from
//! sealing at-rest damage under the output's fresh CRC. Compaction is threshold-triggered inline rather than a free
//! thread: the repo's chaos and crash tests assert byte-identical seeded
//! outcomes, which a racing background compactor would break.
//!
//! ## Read path
//!
//! Every published segment's [`SegIndex`] — bloom filter plus one sorted
//! row per entry — lives in memory, built from the entries in hand when
//! the segment is written and by one walk of the CRC-verified blob at
//! `open`, which is the store's one check of its medium: a manifest that
//! does not decode, or a segment that is missing, fails its CRC, does not
//! index or holds another number of entries than its manifest entry says,
//! fails `open` as [`FsError::Corrupt`]. `get` consults the memtable, then
//! each segment newest first: bloom filter, binary search of the rows, and
//! for a live hit one [`WalMedia::read_range`] of that value's stored
//! bytes, handed out as stored with the row's codec and raw length. The
//! store decodes nothing: the reader decodes a value as it decodes an
//! input, timed and counted ([`crate::node::NodeState::decode_timed`]),
//! outside the store's lock. A miss, a tombstone, `contains` and
//! [`WalStore::live`] read nothing from the medium — `wal.segment.reads`
//! counts the value fetches and stays at zero for them, which the crash
//! tests assert — and nothing in the store reads the clock.

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use fanstore_compress::crc32::crc32;
use fanstore_compress::{CodecFamily, CodecId};
use parking_lot::Mutex;

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::FsError;

use super::log::{encode_parts, replay};
use super::manifest::{WalManifest, WalSegmentMeta};
use super::media::WalMedia;
use super::memtable::{MemEntry, MemTable};
use super::segment::{self, Part, SegIndex, SegRow, STORED_RAW};

/// Write-path configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Object-name prefix on the medium (`<dir>/LOG`, `<dir>/seg-*`,
    /// `<dir>/MANIFEST`).
    pub dir: String,
    /// Codec for segment values (WAL records stay uncompressed). It is
    /// paid by the write that crosses `memtable_budget`, so the default
    /// is the fast end of the ratio/cost curve; each entry records the
    /// codec it was stored with, so segments written under another
    /// setting stay readable and compaction carries them as they are.
    pub codec: CodecId,
    /// Per-segment bloom filter false-positive target.
    pub bloom_fp: f64,
    /// Flush budget: key + value bytes applied since the last flush;
    /// crossing it triggers a flush (and with it the log trim).
    pub memtable_budget: usize,
    /// Records per automatic group commit. 1 = sync every write before
    /// acknowledging it; N > 1 = batch N appends per sync (relaxed
    /// durability: a crash may lose the last un-committed < N writes).
    pub commit_every: usize,
    /// Merge the newest size-tiered run of segments after a flush once it
    /// holds this many (see the module doc; 0 = only on explicit
    /// [`WalStore::compact`], which merges every segment).
    pub compact_min_segments: usize,
    /// Modelled fsync cost for media the cluster runtime constructs on
    /// this store's behalf (see [`super::media::RamMedia`]); ignored
    /// when the medium is supplied pre-built.
    pub sync_cost: Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            dir: "wal".to_string(),
            codec: CodecId::new(CodecFamily::Lz4Fast, 1),
            bloom_fp: 0.01,
            memtable_budget: 1 << 20,
            commit_every: 1,
            compact_min_segments: 4,
            sync_cost: Duration::from_micros(20),
        }
    }
}

/// Result of a lookup.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// The newest version as stored: its codec, its raw (decoded) length
    /// and its stored bytes. A memtable value is stored raw.
    Hit(CodecId, usize, Arc<Vec<u8>>),
    /// The newest version deletes the key.
    Tombstone,
    /// The store has never seen the key.
    Miss,
}

/// What recovery found on the medium.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Segments loaded from the published manifest.
    pub segments: usize,
    /// Log records replayed into the memtable.
    pub records: u64,
    /// Log records skipped because the manifest's `trim_seq` already
    /// covers them (stale tail of a crashed trim).
    pub skipped: u64,
    /// Whether the log ended in a torn or corrupt frame.
    pub torn: bool,
    /// Highest sequence recovered (segments and log combined).
    pub durable_seq: u64,
}

/// Outcome of one compaction run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segments merged away.
    pub merged_segments: usize,
    /// Raw value bytes read from the inputs.
    pub in_bytes: u64,
    /// Raw value bytes written to the output.
    pub out_bytes: u64,
    /// Superseded older versions dropped.
    pub dropped_versions: u64,
    /// Tombstones retired.
    pub dropped_tombstones: u64,
}

/// Handles into the registry for every WAL instrument, resolved once.
#[derive(Debug)]
pub struct WalMetrics {
    /// Records appended (`wal.append.records`).
    pub append_records: Arc<Counter>,
    /// Value bytes appended (`wal.append.bytes`).
    pub append_bytes: Arc<Counter>,
    /// Syncs issued by commits (`wal.sync.count`).
    pub sync_count: Arc<Counter>,
    /// Records per commit batch (`wal.commit.batch`).
    pub commit_batch: Arc<Histogram>,
    /// Memtable flushes (`wal.flush.count`).
    pub flush_count: Arc<Counter>,
    /// Entries flushed (`wal.flush.entries`).
    pub flush_entries: Arc<Counter>,
    /// Segment bytes written by flushes (`wal.flush.bytes`).
    pub flush_bytes: Arc<Counter>,
    /// Compaction runs (`wal.compact.runs`).
    pub compact_runs: Arc<Counter>,
    /// Raw bytes read by compaction (`wal.compact.in_bytes`).
    pub compact_in_bytes: Arc<Counter>,
    /// Raw bytes written by compaction (`wal.compact.out_bytes`).
    pub compact_out_bytes: Arc<Counter>,
    /// Versions + tombstones dropped (`wal.compact.dropped`).
    pub compact_dropped: Arc<Counter>,
    /// Records replayed at open (`wal.replay.records`).
    pub replay_records: Arc<Counter>,
    /// Torn log tails found at open (`wal.replay.torn`).
    pub replay_torn: Arc<Counter>,
    /// Segments loaded at open (`wal.replay.segments`).
    pub replay_segments: Arc<Counter>,
    /// Lookups answered by the memtable (`wal.memtable.hits`).
    pub memtable_hits: Arc<Counter>,
    /// Lookups answered by a segment (`wal.segment.hits`).
    pub segment_hits: Arc<Counter>,
    /// Values fetched from segment data on the medium
    /// (`wal.segment.reads`).
    pub segment_reads: Arc<Counter>,
    /// Segments skipped by a negative bloom probe (`wal.bloom.negative`).
    pub bloom_negative: Arc<Counter>,
    /// Bloom positives the segment then refuted
    /// (`wal.bloom.false_positive`).
    pub bloom_false_positive: Arc<Counter>,
    /// Lookups missing everywhere (`wal.lookup.miss`).
    pub lookup_miss: Arc<Counter>,
    /// Current memtable bytes (`wal.memtable.bytes`).
    pub memtable_bytes: Arc<Gauge>,
    /// Current published segment count (`wal.segments`).
    pub segments: Arc<Gauge>,
    /// Highest durable sequence (`wal.durable.seq`).
    pub durable_seq: Arc<Gauge>,
}

impl WalMetrics {
    /// Resolve every instrument on `registry` under its stable name.
    pub fn register(registry: &MetricsRegistry) -> Self {
        WalMetrics {
            append_records: registry.counter("wal.append.records"),
            append_bytes: registry.counter("wal.append.bytes"),
            sync_count: registry.counter("wal.sync.count"),
            commit_batch: registry.histogram("wal.commit.batch"),
            flush_count: registry.counter("wal.flush.count"),
            flush_entries: registry.counter("wal.flush.entries"),
            flush_bytes: registry.counter("wal.flush.bytes"),
            compact_runs: registry.counter("wal.compact.runs"),
            compact_in_bytes: registry.counter("wal.compact.in_bytes"),
            compact_out_bytes: registry.counter("wal.compact.out_bytes"),
            compact_dropped: registry.counter("wal.compact.dropped"),
            replay_records: registry.counter("wal.replay.records"),
            replay_torn: registry.counter("wal.replay.torn"),
            replay_segments: registry.counter("wal.replay.segments"),
            memtable_hits: registry.counter("wal.memtable.hits"),
            segment_hits: registry.counter("wal.segment.hits"),
            segment_reads: registry.counter("wal.segment.reads"),
            bloom_negative: registry.counter("wal.bloom.negative"),
            bloom_false_positive: registry.counter("wal.bloom.false_positive"),
            lookup_miss: registry.counter("wal.lookup.miss"),
            memtable_bytes: registry.gauge("wal.memtable.bytes"),
            segments: registry.gauge("wal.segments"),
            durable_seq: registry.gauge("wal.durable.seq"),
        }
    }
}

/// A published segment with its in-memory index (bloom + rows).
struct LoadedSegment {
    meta: WalSegmentMeta,
    index: SegIndex,
}

impl LoadedSegment {
    /// Whether the segment holds a version of `path`, from its bloom
    /// filter and index rows alone.
    fn holds(&self, path: &str) -> bool {
        self.index.header.bloom.contains(path) && self.index.find(path).is_some()
    }
}

/// Where the newest version of a key was found, before any value bytes
/// are read.
enum Found<'a> {
    /// Live in the memtable.
    Mem(&'a Arc<Vec<u8>>),
    /// Live in a segment: fetch `row`'s stored bytes to read it.
    Seg(&'a LoadedSegment, &'a SegRow),
    /// Deleted.
    Dead,
    /// Never seen.
    Miss,
}

/// Mutable store state behind one lock.
struct Inner {
    mem: MemTable,
    /// Key + value bytes applied to the memtable since the last flush:
    /// what the log holds beyond `trim_seq`, and the flush trigger.
    applied: usize,
    /// Encoded frames not yet appended to the medium.
    pending: Vec<u8>,
    pending_records: u64,
    next_seq: u64,
    durable_seq: u64,
    manifest: WalManifest,
    /// Loaded indexes, aligned with `manifest.segments` (newest first).
    loaded: Vec<LoadedSegment>,
    next_segment_id: u64,
}

/// A snapshot of the store's shape ([`WalStore::status`]).
#[derive(Debug, Clone)]
pub struct WalStatus {
    /// Publish counter of the current manifest.
    pub publish: u64,
    /// Highest log sequence the segments cover.
    pub trim_seq: u64,
    /// Highest durable sequence.
    pub durable_seq: u64,
    /// Keys (and tombstones) buffered in the memtable.
    pub memtable_keys: usize,
    /// Memtable bytes.
    pub memtable_bytes: usize,
    /// Published segments, newest first.
    pub segments: Vec<WalSegmentMeta>,
}

/// The durable write path for one node.
pub struct WalStore {
    media: Arc<dyn WalMedia>,
    cfg: WalConfig,
    inner: Mutex<Inner>,
    metrics: WalMetrics,
}

impl WalStore {
    /// Open (or create) a store on `media`, replaying any previous
    /// state: the published manifest names the segment set, and log
    /// records past its `trim_seq` rebuild the memtable — tolerant of a
    /// torn log tail, intolerant of a corrupt manifest or segment (those
    /// are storage corruption, not crash artifacts). A segment must be
    /// present, match its manifest entry's length and CRC, index, and hold
    /// as many entries as that entry says.
    pub fn open(
        media: Arc<dyn WalMedia>,
        cfg: WalConfig,
        registry: &MetricsRegistry,
    ) -> Result<(Self, WalReplay), FsError> {
        let metrics = WalMetrics::register(registry);
        let manifest = match media.read(&format!("{}/MANIFEST", cfg.dir)) {
            Some(buf) => WalManifest::decode(&buf)?,
            None => WalManifest::default(),
        };
        let mut loaded = Vec::with_capacity(manifest.segments.len());
        let mut max_segment_id = 0u64;
        let mut durable_seq = manifest.trim_seq;
        for meta in &manifest.segments {
            let index = segment::index(&read_verified(media.as_ref(), meta)?)?;
            if index.rows.len() != meta.entries as usize {
                return Err(FsError::Corrupt(format!(
                    "wal: segment {} holds {} entries, its manifest entry says {}",
                    meta.name,
                    index.rows.len(),
                    meta.entries
                )));
            }
            durable_seq = durable_seq.max(index.header.last_seq);
            if let Some(id) = segment_id(&meta.name) {
                max_segment_id = max_segment_id.max(id);
            }
            loaded.push(LoadedSegment { meta: meta.clone(), index });
        }
        let log = media.read(&format!("{}/LOG", cfg.dir)).unwrap_or_default();
        let (records, torn) = replay(&log);
        let mut mem = MemTable::new();
        let mut applied = 0usize;
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        for rec in records {
            if rec.seq <= manifest.trim_seq {
                skipped += 1; // a crashed trim left covered records behind
                continue;
            }
            applied += rec.path.len() + rec.value.len();
            replayed += 1;
            durable_seq = durable_seq.max(rec.seq);
            mem.apply(rec);
        }
        let report =
            WalReplay { segments: loaded.len(), records: replayed, skipped, torn, durable_seq };
        metrics.replay_records.add(replayed);
        metrics.replay_segments.add(loaded.len() as u64);
        if torn {
            metrics.replay_torn.inc();
        }
        metrics.memtable_bytes.set(mem.bytes() as u64);
        metrics.segments.set(loaded.len() as u64);
        metrics.durable_seq.set(durable_seq);
        let inner = Inner {
            mem,
            applied,
            pending: Vec::new(),
            pending_records: 0,
            next_seq: durable_seq + 1,
            durable_seq,
            manifest,
            loaded,
            next_segment_id: max_segment_id + 1,
        };
        Ok((WalStore { media, cfg, inner: Mutex::new(inner), metrics }, report))
    }

    /// The store's instrument handles.
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// Write `value` at `path`. Returns the record's sequence number
    /// once the write is as durable as the configured commit policy
    /// makes it (with `commit_every = 1`, fully durable).
    pub fn put(&self, path: &str, value: Vec<u8>) -> Result<u64, FsError> {
        self.append(&mut self.inner.lock(), path, Some(value))
    }

    /// [`WalStore::put`] unless `path` already resolves to a value, decided
    /// under the store's lock; `None` means a live value kept the path.
    pub fn put_if_absent(&self, path: &str, value: Vec<u8>) -> Result<Option<u64>, FsError> {
        let mut inner = self.inner.lock();
        if matches!(self.locate(&inner, path), Found::Mem(_) | Found::Seg(..)) {
            return Ok(None);
        }
        self.append(&mut inner, path, Some(value)).map(Some)
    }

    /// Delete `path` (a tombstone record; compaction retires it).
    pub fn unlink(&self, path: &str) -> Result<u64, FsError> {
        self.append(&mut self.inner.lock(), path, None)
    }

    /// Append one record: WAL frame into the pending batch, memtable
    /// update, then auto-commit/flush/compact per configuration.
    fn append(
        &self,
        inner: &mut Inner,
        path: &str,
        value: Option<Vec<u8>>,
    ) -> Result<u64, FsError> {
        crate::pack::check_path(path)?;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let bytes = value.as_ref().map_or(0, Vec::len);
        encode_parts(&mut inner.pending, seq, path, value.as_deref());
        inner.pending_records += 1;
        inner.mem.insert(path, MemEntry { seq, value: value.map(Arc::new) });
        inner.applied += path.len() + bytes;
        self.metrics.append_records.inc();
        self.metrics.append_bytes.add(bytes as u64);
        self.metrics.memtable_bytes.set(inner.mem.bytes() as u64);
        if inner.pending_records >= self.cfg.commit_every.max(1) as u64 {
            self.commit_locked(inner)?;
        }
        if inner.applied >= self.cfg.memtable_budget {
            self.flush_locked(inner)?;
        }
        Ok(seq)
    }

    /// Group commit: append every pending record to the log in one
    /// batch and sync. Returns the highest durable sequence. An error
    /// means the batch is NOT durable — callers must not acknowledge.
    pub fn commit(&self) -> Result<u64, FsError> {
        let mut inner = self.inner.lock();
        self.commit_locked(&mut inner)?;
        Ok(inner.durable_seq)
    }

    fn commit_locked(&self, inner: &mut Inner) -> Result<(), FsError> {
        if inner.pending_records == 0 {
            return Ok(());
        }
        let batch = inner.pending_records;
        let buf = std::mem::take(&mut inner.pending);
        inner.pending_records = 0;
        self.media.append(&self.log_name(), &buf)?;
        self.media.sync()?;
        inner.durable_seq = inner.next_seq - 1;
        self.metrics.sync_count.inc();
        self.metrics.commit_batch.record(batch);
        self.metrics.durable_seq.set(inner.durable_seq);
        Ok(())
    }

    /// Flush the memtable into a new immutable segment and publish the
    /// extended segment set. No-op on an empty memtable. Returns the
    /// new segment's name.
    pub fn flush(&self) -> Result<Option<String>, FsError> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<Option<String>, FsError> {
        // Everything in the memtable must be in the durable log before
        // the flush covers it: the manifest's trim_seq claims it.
        self.commit_locked(inner)?;
        if inner.mem.is_empty() {
            return Ok(None);
        }
        let entries: Vec<(String, MemEntry)> =
            inner.mem.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let built = segment::build(&entries, self.cfg.codec, self.cfg.bloom_fp)?;
        let name = format!("{}/seg-{:08}", self.cfg.dir, inner.next_segment_id);
        let meta = segment_meta(&name, &built);
        // Segment first, sync, then the manifest — the atomic publish
        // point — then the log trim. A crash between any two steps
        // leaves a state replay already handles.
        self.media.write(&name, built.blob)?;
        self.media.sync()?;
        let mut manifest = inner.manifest.clone();
        manifest.publish += 1;
        manifest.trim_seq = manifest.trim_seq.max(inner.durable_seq);
        manifest.segments.insert(0, meta.clone());
        self.media.write(&self.manifest_name(), manifest.encode())?;
        self.media.sync()?;
        self.media.write(&self.log_name(), Vec::new())?;
        // Publish succeeded: adopt the new state.
        inner.next_segment_id += 1;
        inner.manifest = manifest;
        self.metrics.flush_count.inc();
        self.metrics.flush_entries.add(entries.len() as u64);
        self.metrics.flush_bytes.add(meta.bytes);
        inner.loaded.insert(0, LoadedSegment { meta, index: built.index });
        inner.mem.drain();
        inner.applied = 0;
        self.metrics.memtable_bytes.set(0);
        self.metrics.segments.set(inner.loaded.len() as u64);
        let run = tiered_run(&inner.manifest.segments);
        if self.cfg.compact_min_segments > 0 && run >= self.cfg.compact_min_segments {
            self.compact_locked(&mut *inner, run)?;
        }
        Ok(Some(name))
    }

    /// Merge every published segment into one, dropping superseded
    /// versions and tombstones, and publish the merged set. No-op below
    /// two segments.
    pub fn compact(&self) -> Result<CompactionReport, FsError> {
        let mut inner = self.inner.lock();
        let all = inner.loaded.len();
        self.compact_locked(&mut inner, all)
    }

    /// Merge the newest `run` segments into one, which takes their place
    /// at the front of the set. A run that reaches the oldest segment
    /// drops every tombstone it wins with; a shorter run carries each one
    /// an older segment still holds a version of, so it keeps shadowing
    /// that version.
    fn compact_locked(&self, inner: &mut Inner, run: usize) -> Result<CompactionReport, FsError> {
        if run < 2 {
            return Ok(CompactionReport::default());
        }
        let mut report = CompactionReport { merged_segments: run, ..Default::default() };
        let (inputs, older) = inner.loaded.split_at(run);
        // Each input is read once and checked against the manifest before
        // a byte is carried out of it: the output gets a fresh CRC, which
        // must not seal damage the inputs picked up at rest.
        let blobs = inputs
            .iter()
            .map(|seg| read_verified(self.media.as_ref(), &seg.meta))
            .collect::<Result<Vec<_>, _>>()?;
        // Newest-first walk over the index rows: the first version of a
        // key wins (`None` when that version is a tombstone that nothing
        // older needs shadowed — remembered so older versions drop as
        // superseded, emitted as nothing); everything after it for the same
        // key is superseded.
        let mut winners: BTreeMap<&str, Option<Part<'_>>> = BTreeMap::new();
        for (seg, blob) in inputs.iter().zip(&blobs) {
            for row in &seg.index.rows {
                report.in_bytes += row.raw_len as u64;
                let Entry::Vacant(slot) = winners.entry(&row.path) else {
                    report.dropped_versions += 1;
                    continue;
                };
                if row.tombstone && !older.iter().any(|seg| seg.holds(&row.path)) {
                    report.dropped_tombstones += 1;
                    slot.insert(None);
                    continue;
                }
                let part = row.carry(blob).ok_or_else(|| {
                    FsError::Corrupt(format!(
                        "wal: {}: index row outside {}",
                        row.path, seg.meta.name
                    ))
                })?;
                report.out_bytes += row.raw_len as u64;
                slot.insert(Some(part));
            }
        }
        let live: Vec<Part<'_>> = winners.into_values().flatten().collect();
        let old: Vec<String> = inputs.iter().map(|seg| seg.meta.name.clone()).collect();
        let merged = if live.is_empty() {
            None
        } else {
            let built = segment::assemble(&live, self.cfg.bloom_fp);
            let name = format!("{}/seg-{:08}", self.cfg.dir, inner.next_segment_id);
            let meta = segment_meta(&name, &built);
            self.media.write(&name, built.blob)?;
            self.media.sync()?;
            Some(LoadedSegment { meta, index: built.index })
        };
        let mut manifest = inner.manifest.clone();
        manifest.publish += 1;
        manifest.segments.splice(..run, merged.iter().map(|seg| seg.meta.clone()));
        self.media.write(&self.manifest_name(), manifest.encode())?;
        self.media.sync()?;
        inner.next_segment_id += merged.is_some() as u64;
        inner.manifest = manifest;
        inner.loaded.splice(..run, merged);
        // The old blobs are unreferenced once the manifest landed;
        // deleting them is GC, crash-safe in either order.
        for name in old {
            self.media.delete(&name);
        }
        self.metrics.compact_runs.inc();
        self.metrics.compact_in_bytes.add(report.in_bytes);
        self.metrics.compact_out_bytes.add(report.out_bytes);
        self.metrics.compact_dropped.add(report.dropped_versions + report.dropped_tombstones);
        self.metrics.segments.set(inner.loaded.len() as u64);
        Ok(report)
    }

    /// Find the newest version of `path` — memtable, then segments
    /// newest-first, each guarded by its bloom filter — from memory alone.
    fn locate<'a>(&self, inner: &'a Inner, path: &str) -> Found<'a> {
        if let Some(e) = inner.mem.get(path) {
            self.metrics.memtable_hits.inc();
            return e.value.as_ref().map_or(Found::Dead, Found::Mem);
        }
        for seg in &inner.loaded {
            if !seg.index.header.bloom.contains(path) {
                self.metrics.bloom_negative.inc();
                continue;
            }
            match seg.index.find(path) {
                Some(row) => {
                    self.metrics.segment_hits.inc();
                    return if row.tombstone { Found::Dead } else { Found::Seg(seg, row) };
                }
                None => self.metrics.bloom_false_positive.inc(),
            }
        }
        self.metrics.lookup_miss.inc();
        Found::Miss
    }

    /// Look up the newest version of `path`, as stored. Only a live value
    /// held in a segment touches the medium, and then only its own stored
    /// bytes; the lock is held while they are located and read.
    pub fn get(&self, path: &str) -> Result<Lookup, FsError> {
        let inner = self.inner.lock();
        let (codec, raw_len, stored) = match self.locate(&inner, path) {
            Found::Mem(v) => return Ok(Lookup::Hit(STORED_RAW, v.len(), Arc::clone(v))),
            Found::Seg(seg, row) => {
                self.metrics.segment_reads.inc();
                let stored = self.media.read_range(&seg.meta.name, row.offset, row.stored_len);
                let vanished =
                    || FsError::Corrupt(format!("wal: segment {} vanished", seg.meta.name));
                (row.codec, row.raw_len, stored.ok_or_else(vanished)?)
            }
            Found::Dead => return Ok(Lookup::Tombstone),
            Found::Miss => return Ok(Lookup::Miss),
        };
        drop(inner);
        Ok(Lookup::Hit(codec, raw_len, Arc::new(stored)))
    }

    /// Every live key with its raw length, from the memtable and the
    /// segment indexes, newest version first: a tombstone hides its key and
    /// adds nothing. Nothing is read from the medium.
    pub fn live(&self) -> Vec<(String, usize)> {
        let inner = self.inner.lock();
        let mem = inner.mem.iter().map(|(path, e)| (path, e.value.as_ref().map(|v| v.len())));
        let rows = inner.loaded.iter().flat_map(|seg| &seg.index.rows);
        let rows = rows.map(|row| (&row.path, (!row.tombstone).then_some(row.raw_len)));
        let mut seen = HashSet::new();
        let newest = mem.chain(rows).filter(|(path, _)| seen.insert(*path));
        newest.filter_map(|(path, len)| Some((path.clone(), len?))).collect()
    }

    /// Whether `path` currently resolves to a value. Answered from the
    /// memtable and the segment indexes: nothing is read or decoded.
    pub fn contains(&self, path: &str) -> bool {
        matches!(self.locate(&self.inner.lock(), path), Found::Mem(_) | Found::Seg(..))
    }

    /// Highest sequence the medium is guaranteed to hold.
    pub fn durable_seq(&self) -> u64 {
        self.inner.lock().durable_seq
    }

    /// The store's current shape: publish counter, memtable and
    /// published segments.
    pub fn status(&self) -> WalStatus {
        let inner = self.inner.lock();
        WalStatus {
            publish: inner.manifest.publish,
            trim_seq: inner.manifest.trim_seq,
            durable_seq: inner.durable_seq,
            memtable_keys: inner.mem.len(),
            memtable_bytes: inner.mem.bytes(),
            segments: inner.manifest.segments.clone(),
        }
    }

    fn log_name(&self) -> String {
        format!("{}/LOG", self.cfg.dir)
    }

    fn manifest_name(&self) -> String {
        format!("{}/MANIFEST", self.cfg.dir)
    }
}

/// The size-tiered run after a flush, as a count of the newest segments:
/// the next older segment joins while its blob is no larger than the
/// run's total so far.
fn tiered_run(segments: &[WalSegmentMeta]) -> usize {
    let mut total = 0u64;
    segments
        .iter()
        .take_while(|seg| {
            let joins = total == 0 || seg.bytes <= total;
            total += seg.bytes;
            joins
        })
        .count()
}

/// Read a published segment whole and check its length and CRC against
/// the manifest entry that names it.
fn read_verified(media: &dyn WalMedia, meta: &WalSegmentMeta) -> Result<Arc<Vec<u8>>, FsError> {
    let blob = media
        .read(&meta.name)
        .ok_or_else(|| FsError::Corrupt(format!("wal: missing segment {}", meta.name)))?;
    if blob.len() as u64 != meta.bytes || crc32(&blob) != meta.crc {
        return Err(FsError::Corrupt(format!("wal: segment {} fails CRC", meta.name)));
    }
    Ok(blob)
}

/// The manifest entry for a segment about to be written as `name`.
fn segment_meta(name: &str, built: &segment::Built) -> WalSegmentMeta {
    WalSegmentMeta {
        name: name.to_string(),
        bytes: built.blob.len() as u64,
        crc: crc32(&built.blob),
        first_seq: built.index.header.first_seq,
        last_seq: built.index.header.last_seq,
        entries: built.index.rows.len() as u32,
    }
}

/// Parse the numeric id out of a `<dir>/seg-NNNNNNNN` name.
fn segment_id(name: &str) -> Option<u64> {
    name.rsplit("seg-").next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::media::RamMedia;
    use std::time::Duration;

    fn open(media: Arc<dyn WalMedia>, cfg: WalConfig) -> (WalStore, WalReplay) {
        WalStore::open(media, cfg, &MetricsRegistry::new()).expect("open")
    }

    /// `path`'s value decoded from what `get` hands out, as a reader
    /// decodes it.
    fn value(store: &WalStore, path: &str) -> Option<Vec<u8>> {
        let Lookup::Hit(codec, raw_len, stored) = store.get(path).unwrap() else { return None };
        let mut out = Vec::new();
        crate::node::decompress_object_into(codec, &stored, raw_len, path, &mut out).unwrap();
        Some(out)
    }

    fn tiny_cfg() -> WalConfig {
        WalConfig { memtable_budget: 256, compact_min_segments: 0, ..WalConfig::default() }
    }

    #[test]
    fn put_get_unlink_roundtrip() {
        let media = RamMedia::new(Duration::ZERO);
        let (store, replay) = open(media, WalConfig::default());
        assert_eq!(replay, WalReplay::default());
        store.put("a", b"one".to_vec()).unwrap();
        store.put("a", b"two".to_vec()).unwrap();
        assert_eq!(&*value(&store, "a").unwrap(), b"two");
        store.unlink("a").unwrap();
        assert!(matches!(store.get("a").unwrap(), Lookup::Tombstone));
        assert!(matches!(store.get("never").unwrap(), Lookup::Miss));
    }

    #[test]
    fn put_if_absent_refuses_only_a_live_value() {
        let (store, _) = open(RamMedia::new(Duration::ZERO), WalConfig::default());
        assert_eq!(store.put_if_absent("a", b"one".to_vec()).unwrap(), Some(1));
        assert_eq!(store.put_if_absent("a", b"two".to_vec()).unwrap(), None);
        assert_eq!(&*value(&store, "a").unwrap(), b"one");
        assert_eq!(store.metrics().append_records.get(), 1, "a refused put appends nothing");
        store.unlink("a").unwrap();
        assert_eq!(store.put_if_absent("a", b"three".to_vec()).unwrap(), Some(3));
    }

    #[test]
    fn paths_the_pack_field_cannot_hold_are_refused() {
        let (store, _) = open(RamMedia::new(Duration::ZERO), WalConfig::default());
        for path in ["p".repeat(256), "a\0b".to_string()] {
            let got = store.put(&path, b"v".to_vec());
            assert!(matches!(got, Err(FsError::BadPath(_))), "{path:?}: {got:?}");
        }
        assert!(store.put(&"p".repeat(255), b"v".to_vec()).is_ok(), "255 bytes fit");
        assert_eq!(store.metrics().append_records.get(), 1);
    }

    #[test]
    fn restart_replays_log_into_memtable() {
        let media = RamMedia::new(Duration::ZERO);
        {
            let (store, _) = open(media.clone(), WalConfig::default());
            store.put("x", b"durable".to_vec()).unwrap();
            store.unlink("gone").unwrap();
        }
        let (store, replay) = open(media, WalConfig::default());
        assert_eq!(replay.records, 2);
        assert!(!replay.torn);
        assert_eq!(&*value(&store, "x").unwrap(), b"durable");
        assert!(matches!(store.get("gone").unwrap(), Lookup::Tombstone));
    }

    #[test]
    fn flush_publishes_segment_and_survives_restart() {
        let media = RamMedia::new(Duration::ZERO);
        {
            let (store, _) = open(media.clone(), tiny_cfg());
            store.put("big", vec![7u8; 300].clone()).unwrap(); // crosses the budget: auto-flush
            assert_eq!(store.status().segments.len(), 1);
            assert_eq!(store.status().memtable_keys, 0, "flush drains the memtable");
            store.put("after", b"tail".to_vec()).unwrap();
        }
        let (store, replay) = open(media, tiny_cfg());
        assert_eq!(replay.segments, 1);
        assert_eq!(replay.records, 1, "only the post-flush record replays");
        assert_eq!(&*value(&store, "big").unwrap(), &[7u8; 300]);
        assert_eq!(&*value(&store, "after").unwrap(), b"tail");
    }

    #[test]
    fn live_lists_each_newest_live_version_and_reads_no_value() {
        let (store, _) = open(RamMedia::new(Duration::ZERO), tiny_cfg());
        store.put("old", vec![1u8; 40]).unwrap();
        store.put("gone", vec![2u8; 40]).unwrap();
        store.put("twice", vec![3u8; 40]).unwrap();
        store.flush().unwrap();
        store.put("twice", vec![4u8; 7]).unwrap();
        store.unlink("gone").unwrap();
        store.put("unlinked", b"v".to_vec()).unwrap();
        store.unlink("unlinked").unwrap();
        store.put("new", vec![5u8; 9]).unwrap();
        let mut live = store.live();
        live.sort();
        let want = [("new", 9), ("old", 40), ("twice", 7)].map(|(p, n)| (p.to_string(), n));
        assert_eq!(live, want);
        assert_eq!(store.metrics().segment_reads.get(), 0, "a listing reads no value");
    }

    #[test]
    fn negative_lookup_never_reads_segments() {
        let media = RamMedia::new(Duration::ZERO);
        let cfg = WalConfig { bloom_fp: 0.0001, ..tiny_cfg() };
        let (store, _) = open(media, cfg);
        for i in 0..20 {
            store.put(&format!("k{i}"), vec![1u8; 40]).unwrap();
        }
        store.flush().unwrap();
        let before = store.metrics().segment_reads.get();
        for i in 0..50 {
            let _ = store.get(&format!("absent-{i}")).unwrap();
        }
        // At a 0.01% FP target over 50 probes, zero segment reads is the
        // expected (and deterministic, fixed-hash) outcome.
        assert_eq!(store.metrics().segment_reads.get(), before, "bloom must skip the segment");
        assert!(store.metrics().bloom_negative.get() >= 50);
    }

    #[test]
    fn compaction_merges_and_drops() {
        let media = RamMedia::new(Duration::ZERO);
        let (store, _) = open(media.clone(), tiny_cfg());
        store.put("keep", b"v1".to_vec()).unwrap();
        store.put("dead", b"x".to_vec()).unwrap();
        store.flush().unwrap();
        store.put("keep", b"v2".to_vec()).unwrap();
        store.unlink("dead").unwrap();
        store.unlink("unlinked").unwrap();
        store.flush().unwrap();
        assert_eq!(store.status().segments.len(), 2);
        let report = store.compact().unwrap();
        assert_eq!(report.merged_segments, 2);
        assert_eq!(report.dropped_versions, 2, "old keep + old dead superseded");
        assert_eq!(report.dropped_tombstones, 2, "dead's and unlinked's");
        assert_eq!(store.status().segments.len(), 1);
        assert_eq!(&*value(&store, "keep").unwrap(), b"v2");
        assert!(matches!(store.get("dead").unwrap(), Lookup::Miss), "tombstone retired");
        assert!(matches!(store.get("unlinked").unwrap(), Lookup::Miss), "tombstone retired");
        drop(store);
        let (store, replay) = open(media, tiny_cfg());
        assert_eq!(replay.segments, 1, "the merged segment checks out at open");
        assert_eq!(&*value(&store, "keep").unwrap(), b"v2");
    }

    #[test]
    fn a_shorter_run_keeps_what_shadows_an_older_segment() {
        let media = RamMedia::new(Duration::ZERO);
        let cfg = WalConfig { memtable_budget: 1 << 20, compact_min_segments: 3, ..tiny_cfg() };
        let (store, _) = open(media.clone(), cfg.clone());
        // The old segment: `k` and `late`, two keys later flushes unlink,
        // and incompressible filler that makes it larger than every flush
        // after it.
        let noise =
            |seed: usize| (0..300).map(move |j| (j * 131 + seed * 71) as u8 ^ (j >> 3) as u8);
        store.put("k", b"v1".to_vec()).unwrap();
        store.put("late", b"old".to_vec()).unwrap();
        for i in 0..4 {
            store.put(&format!("fill{i}"), noise(i).collect()).unwrap();
        }
        store.flush().unwrap();
        let old = store.status().segments[0].clone();
        store.unlink("k").unwrap();
        store.flush().unwrap();
        store.unlink("late").unwrap();
        store.flush().unwrap();
        assert!(matches!(store.get("k").unwrap(), Lookup::Tombstone));
        assert!(matches!(store.get("late").unwrap(), Lookup::Tombstone));
        // The fourth flush closes a run of three small segments above `old`.
        store.put("x", vec![9u8; 32]).unwrap();
        store.flush().unwrap();
        assert_eq!(store.metrics().compact_runs.get(), 1, "the run merged");
        let names: Vec<String> = store.status().segments.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert_eq!(names[1], old.name, "the older segment stays published");
        let shadowed = |store: &WalStore| {
            assert!(matches!(store.get("k").unwrap(), Lookup::Tombstone), "v1 stays shadowed");
            assert!(matches!(store.get("late").unwrap(), Lookup::Tombstone), "old stays shadowed");
            assert_eq!(&*value(store, "x").unwrap(), &[9u8; 32]);
            assert_eq!(store.status().segments[1], old);
        };
        shadowed(&store);
        drop(store);
        let (store, _) = open(media, cfg);
        shadowed(&store);
        let report = store.compact().unwrap();
        assert_eq!(report.merged_segments, 2);
        assert_eq!(report.dropped_tombstones, 2, "each tombstone retires with what it shadowed");
        assert_eq!(report.dropped_versions, 2, "v1 and the shadowed `late` drop");
        assert!(matches!(store.get("k").unwrap(), Lookup::Miss));
    }

    #[test]
    fn group_commit_batches_syncs() {
        let media = RamMedia::new(Duration::ZERO);
        let grouped = WalConfig { commit_every: 8, ..WalConfig::default() };
        let (store, _) = open(media.clone(), grouped);
        let syncs0 = media.syncs();
        for i in 0..16 {
            store.put(&format!("g{i}"), vec![0u8; 16]).unwrap();
        }
        assert_eq!(media.syncs() - syncs0, 2, "16 writes, commit_every=8");
        assert_eq!(store.durable_seq(), 16);
        store.put("tail", b"t".to_vec()).unwrap();
        assert_eq!(store.durable_seq(), 16, "17th write awaits its group");
        store.commit().unwrap();
        assert_eq!(store.durable_seq(), 17);
    }

    #[test]
    fn auto_compaction_triggers_on_segment_count() {
        let media = RamMedia::new(Duration::ZERO);
        let cfg =
            WalConfig { memtable_budget: 64, compact_min_segments: 3, ..WalConfig::default() };
        let (store, _) = open(media, cfg);
        for i in 0..12 {
            store.put(&format!("k{i}"), vec![i as u8; 80]).unwrap();
        }
        let status = store.status();
        assert!(
            status.segments.len() < 3,
            "threshold compaction keeps the set small: {} segments",
            status.segments.len()
        );
        assert!(store.metrics().compact_runs.get() >= 1);
        for i in 0..12 {
            assert_eq!(&*value(&store, &format!("k{i}")).unwrap(), &[i as u8; 80]);
        }
    }
}
