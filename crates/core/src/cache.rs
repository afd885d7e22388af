//! The decompressed-file cache (paper §IV-C3, Figure 4).
//!
//! Design principle from the paper: use a *minimum* amount of RAM, since
//! training itself is memory-hungry, and note that in DL training every
//! file is equally likely to be accessed each iteration — so clever reuse
//! policies buy nothing. FanStore therefore uses FIFO eviction with one
//! exception: entries currently opened by one or more I/O threads are
//! never evicted. A thread-safe table tracks an open-count per file
//! (incremented on `open`, decremented on `close`).
//!
//! Two policies are provided:
//! * bounded FIFO-except-in-use (default): entries persist until capacity
//!   pressure evicts them in FIFO order, skipping in-use entries;
//! * eager release (`release_on_zero`): the Figure 4 behaviour — an entry
//!   is dropped as soon as its open-count returns to zero.
//!
//! ## Sharding
//!
//! The table is split into `shards` independent shards, each with its own
//! lock, FIFO queue, byte budget (an equal slice of `capacity`) and
//! counters, so concurrent I/O workers on different files do not
//! serialise on one mutex. A path always maps to the same shard (FNV-1a
//! hash), so the per-path semantics — FIFO-except-in-use, eager release,
//! purge — are exactly the single-lock behaviour within its shard.
//! [`FileCache::stats`] merges the per-shard counters;
//! [`FileCache::shard_snapshots`] exposes them individually.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Default shard count: enough to keep a typical I/O thread pool (4-8
/// workers) from colliding, small enough that per-shard budgets stay
/// useful.
pub const DEFAULT_SHARDS: usize = 8;

/// Cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Capacity in bytes of decompressed data, split evenly across shards.
    pub capacity: usize,
    /// Figure-4 eager policy: release an entry the moment its open-count
    /// reaches zero.
    pub release_on_zero: bool,
    /// Number of independent lock shards (clamped to at least 1). Use 1
    /// to recover the exact single-lock FIFO order across all paths.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 256 * 1024 * 1024, release_on_zero: false, shards: DEFAULT_SHARDS }
    }
}

/// Cache hit/miss counters (one set per shard; [`FileCache::stats`]
/// returns the merged view).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// `open` calls answered from cache.
    pub hits: AtomicU64,
    /// `open` calls that required decompression.
    pub misses: AtomicU64,
    /// Entries evicted by capacity pressure or eager release.
    pub evictions: AtomicU64,
}

/// A point-in-time view of one shard, for metrics export and the
/// property-test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// `open` calls answered from this shard.
    pub hits: u64,
    /// `open` calls this shard missed.
    pub misses: u64,
    /// Entries this shard evicted.
    pub evictions: u64,
    /// Decompressed bytes resident in this shard.
    pub resident_bytes: u64,
    /// This shard's byte budget (its slice of `capacity`).
    pub budget: u64,
    /// Entries resident in this shard.
    pub entries: u64,
}

/// What a cache slot holds: the whole decompressed file, or — for
/// chunked files read by range — only the chunks touched so far.
enum Payload {
    Full(Arc<Vec<u8>>),
    Partial(PartialEntry),
}

/// Partial residency for a chunked file: the decoded chunk prefixes seen
/// so far, keyed by chunk index. A range read decodes a chunk only as far
/// as its window's end, so a resident chunk holds its first bytes, up to
/// all of them. Only the *resident* bytes are charged against the shard
/// budget — a partial entry of a huge file costs what it holds, not the
/// file's declared size.
struct PartialEntry {
    /// The file's nominal chunk size (all chunks but the last have it).
    chunk_size: u32,
    /// Total raw file length (for bounds checks on range hits).
    total_len: u64,
    /// Resident decoded chunk prefixes by index.
    chunks: BTreeMap<u32, Arc<Vec<u8>>>,
    /// Sum of resident chunk byte lengths (the budget charge).
    resident: usize,
}

struct Entry {
    payload: Payload,
    open_count: usize,
}

impl Entry {
    /// Bytes this entry charges against its shard budget.
    fn bytes(&self) -> usize {
        match &self.payload {
            Payload::Full(data) => data.len(),
            Payload::Partial(p) => p.resident,
        }
    }
}

/// A snapshot of one path's residency, for gap computation and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Residency {
    /// The whole file is resident.
    Full,
    /// Only some chunks are resident.
    Partial {
        /// The file's nominal chunk size.
        chunk_size: u32,
        /// Total raw file length.
        total_len: u64,
        /// Sorted indices of the resident chunks.
        chunks: Vec<u32>,
    },
}

struct Inner {
    entries: HashMap<String, Entry>,
    fifo: VecDeque<String>,
    bytes: usize,
}

/// One lock shard: its own table, FIFO queue, byte budget and counters.
struct Shard {
    budget: usize,
    inner: Mutex<Inner>,
    stats: CacheStats,
}

/// Thread-safe decompressed-file cache, sharded by path hash.
pub struct FileCache {
    cfg: CacheConfig,
    shards: Vec<Shard>,
    /// When set, evicted buffers that nobody else references are handed
    /// back to this pool instead of being freed (decode hot-path reuse).
    recycle: Option<Arc<crate::bufpool::BufPool>>,
}

/// FNV-1a of a path — the shard selector. Stable across runs so seeded
/// tests see the same placement.
fn shard_hash(path: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in path.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl FileCache {
    /// Create with the given configuration. `capacity` is split evenly
    /// across the shards (the first `capacity % shards` shards take the
    /// remainder byte each, so the budgets sum exactly to `capacity`).
    pub fn new(cfg: CacheConfig) -> Self {
        let n = cfg.shards.max(1);
        let base = cfg.capacity / n;
        let extra = cfg.capacity % n;
        let shards = (0..n)
            .map(|i| Shard {
                budget: base + usize::from(i < extra),
                inner: Mutex::new(Inner {
                    entries: HashMap::new(),
                    fifo: VecDeque::new(),
                    bytes: 0,
                }),
                stats: CacheStats::default(),
            })
            .collect();
        FileCache { cfg, shards, recycle: None }
    }

    /// [`FileCache::new`], with evicted buffers recycled into `pool`
    /// whenever the cache holds the last reference at eviction time.
    pub fn with_recycle(cfg: CacheConfig, pool: Arc<crate::bufpool::BufPool>) -> Self {
        let mut cache = Self::new(cfg);
        cache.recycle = Some(pool);
        cache
    }

    /// Return an evicted entry's buffer to the pool if the cache held the
    /// last reference; otherwise the readers' `Arc`s keep it alive.
    fn recycle_evicted(&self, data: Arc<Vec<u8>>) {
        if let Some(pool) = &self.recycle {
            pool.put_arc(data);
        }
    }

    #[inline]
    fn shard(&self, path: &str) -> &Shard {
        &self.shards[(shard_hash(path) % self.shards.len() as u64) as usize]
    }

    /// The shard index `path` maps to (exposed for the property tests:
    /// shards are independent, so a per-shard op subsequence replayed on a
    /// one-shard cache must behave identically).
    pub fn shard_of(&self, path: &str) -> usize {
        (shard_hash(path) % self.shards.len() as u64) as usize
    }

    /// Look up `path` for an `open()`: on hit, increments the open-count
    /// and returns the decompressed data. Partial entries are not whole
    /// files, so a whole-file open treats them as a miss.
    pub fn open(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        let shard = self.shard(path);
        let mut inner = shard.inner.lock();
        match inner.entries.get_mut(path) {
            Some(Entry { payload: Payload::Full(data), open_count }) => {
                *open_count += 1;
                shard.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(data))
            }
            _ => {
                shard.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert freshly decompressed data for `path` with an open-count of
    /// one. If another thread inserted concurrently, the existing entry
    /// wins (and its count is bumped) so all readers share one buffer. A
    /// resident *partial* entry is superseded: its chunks are released
    /// and the full buffer takes its place, leaving the entry identical
    /// to a cold full read. Returns the canonical buffer.
    pub fn insert(&self, path: &str, data: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let shard = self.shard(path);
        let mut inner = shard.inner.lock();
        match inner.entries.get_mut(path) {
            Some(Entry { payload: Payload::Full(existing), open_count }) => {
                *open_count += 1;
                return Arc::clone(existing);
            }
            Some(_) => {
                // Partial entry: release its chunks, keep its queue slot.
                if let Some(e) = inner.entries.remove(path) {
                    inner.bytes -= e.bytes();
                    self.recycle_entry(e);
                }
                let size = data.len();
                self.make_room(shard, &mut inner, size);
                inner.entries.insert(
                    path.to_string(),
                    Entry { payload: Payload::Full(Arc::clone(&data)), open_count: 1 },
                );
                inner.bytes += size;
                // make_room may have popped the kept queue slot (the entry
                // was already gone, so the slot was dropped, not requeued);
                // an entry without a slot could never be evicted. Re-queue
                // if the slot is gone.
                if !inner.fifo.iter().any(|p| p == path) {
                    inner.fifo.push_back(path.to_string());
                }
                return data;
            }
            None => {}
        }
        let size = data.len();
        // FIFO eviction within the shard, skipping in-use entries.
        self.make_room(shard, &mut inner, size);
        inner.entries.insert(
            path.to_string(),
            Entry { payload: Payload::Full(Arc::clone(&data)), open_count: 1 },
        );
        inner.fifo.push_back(path.to_string());
        inner.bytes += size;
        data
    }

    /// Install a decoded prefix of one chunk of a chunked file (its first
    /// bytes, up to all of them), creating or extending a partial entry.
    /// Only the bytes held are charged against the shard budget (partial
    /// entries cost what they hold, never the file's declared full size).
    /// A resident full entry wins — the chunk is already covered — and so
    /// does a resident prefix at least as long; a longer prefix replaces a
    /// shorter one, is charged the difference, and the shorter buffer is
    /// recycled.
    pub fn insert_chunk(
        &self,
        path: &str,
        chunk_size: u32,
        total_len: u64,
        index: u32,
        data: Arc<Vec<u8>>,
    ) {
        let shard = self.shard(path);
        let mut inner = shard.inner.lock();
        match inner.entries.get_mut(path) {
            Some(Entry { payload: Payload::Full(_), .. }) => {}
            Some(Entry { payload: Payload::Partial(p), .. }) => {
                let held = p.chunks.get(&index).map(|c| c.len());
                if held.is_some_and(|held| held >= data.len()) {
                    return;
                }
                let grown = data.len() - held.unwrap_or(0);
                if let Some(shorter) = p.chunks.insert(index, data) {
                    self.recycle_evicted(shorter);
                }
                p.resident += grown;
                // Charge the shard *before* trimming: make_room may evict
                // this very entry (open-count 0), and its `bytes()` now
                // includes the new bytes — subtracting it must not
                // underflow, and an evicted entry must not be re-charged
                // afterwards.
                inner.bytes += grown;
                self.make_room(shard, &mut inner, 0);
            }
            None => {
                let size = data.len();
                self.make_room(shard, &mut inner, size);
                let mut chunks = BTreeMap::new();
                chunks.insert(index, data);
                inner.entries.insert(
                    path.to_string(),
                    Entry {
                        payload: Payload::Partial(PartialEntry {
                            chunk_size,
                            total_len,
                            chunks,
                            resident: size,
                        }),
                        open_count: 0,
                    },
                );
                inner.fifo.push_back(path.to_string());
                inner.bytes += size;
            }
        }
    }

    /// Serve raw bytes `[start, end)` of `path` from resident data: a
    /// full entry slices directly; a partial entry answers only when every
    /// covering chunk is resident at least up to `min(end, its end)`.
    /// Range reads are copy-out — they do not take an open-count.
    pub fn open_range(&self, path: &str, start: u64, end: u64) -> Option<Vec<u8>> {
        let shard = self.shard(path);
        let inner = shard.inner.lock();
        let got = match inner.entries.get(path) {
            Some(Entry { payload: Payload::Full(data), .. }) => (end <= data.len() as u64
                && start <= end)
                .then(|| data[start as usize..end as usize].to_vec()),
            Some(Entry { payload: Payload::Partial(p), .. }) => {
                if start > end || end > p.total_len || p.chunk_size == 0 {
                    None
                } else if start == end {
                    Some(Vec::new())
                } else {
                    let cs = u64::from(p.chunk_size);
                    let first = (start / cs) as u32;
                    let last = ((end - 1) / cs) as u32;
                    // Each covering chunk's slice of the window, if its
                    // resident prefix reaches that far (`end <= total_len`).
                    let slice = |i: u32| {
                        let base = u64::from(i) * cs;
                        let (lo, hi) = (start.max(base) - base, end.min(base + cs) - base);
                        let c = p.chunks.get(&i)?;
                        c.get(lo as usize..hi as usize)
                    };
                    (first..=last)
                        .map(slice)
                        .collect::<Option<Vec<_>>>()
                        .map(|parts| parts.concat())
                }
            }
            None => None,
        };
        match got {
            Some(v) => {
                shard.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                shard.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// What is resident for `path`, if anything.
    pub fn residency(&self, path: &str) -> Option<Residency> {
        let shard = self.shard(path);
        let inner = shard.inner.lock();
        inner.entries.get(path).map(|e| match &e.payload {
            Payload::Full(_) => Residency::Full,
            Payload::Partial(p) => Residency::Partial {
                chunk_size: p.chunk_size,
                total_len: p.total_len,
                chunks: p.chunks.keys().copied().collect(),
            },
        })
    }

    /// Hand an evicted entry's buffers to the recycle pool.
    fn recycle_entry(&self, e: Entry) {
        match e.payload {
            Payload::Full(data) => self.recycle_evicted(data),
            Payload::Partial(p) => {
                for (_, data) in p.chunks {
                    self.recycle_evicted(data);
                }
            }
        }
    }

    fn make_room(&self, shard: &Shard, inner: &mut Inner, incoming: usize) {
        if inner.bytes + incoming <= shard.budget {
            return;
        }
        // Scan FIFO order; in-use entries are requeued behind (the "except
        // in-use" rule). Bounded by the current queue length.
        let mut scan = inner.fifo.len();
        while inner.bytes + incoming > shard.budget && scan > 0 {
            scan -= 1;
            let Some(victim) = inner.fifo.pop_front() else { break };
            let in_use = inner.entries.get(&victim).map(|e| e.open_count > 0).unwrap_or(false);
            if in_use {
                inner.fifo.push_back(victim);
            } else if let Some(e) = inner.entries.remove(&victim) {
                inner.bytes -= e.bytes();
                shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
                self.recycle_entry(e);
            }
        }
    }

    /// Record a `close()`: decrements the open-count; under the eager
    /// policy a zero count releases the entry immediately.
    pub fn close(&self, path: &str) {
        let shard = self.shard(path);
        let mut inner = shard.inner.lock();
        let release = match inner.entries.get_mut(path) {
            Some(e) => {
                e.open_count = e.open_count.saturating_sub(1);
                e.open_count == 0 && self.cfg.release_on_zero
            }
            None => false,
        };
        if release {
            if let Some(e) = inner.entries.remove(path) {
                inner.bytes -= e.bytes();
                inner.fifo.retain(|p| p != path);
                shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
                self.recycle_entry(e);
            }
        }
    }

    /// Drop `path` unconditionally (unlink support): readers holding the
    /// `Arc` keep their buffer, but the cache forgets the entry — and its
    /// queue slot — immediately. Returns whether the entry was resident.
    pub fn purge(&self, path: &str) -> bool {
        let shard = self.shard(path);
        let mut inner = shard.inner.lock();
        match inner.entries.remove(path) {
            Some(e) => {
                inner.bytes -= e.bytes();
                inner.fifo.retain(|p| p != path);
                shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
                self.recycle_entry(e);
                true
            }
            None => false,
        }
    }

    /// Bytes of decompressed data currently resident, summed over shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().bytes).sum()
    }

    /// Number of resident entries, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().entries.len()).sum()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merged hit/miss/eviction counters (sum over all shards).
    pub fn stats(&self) -> CacheStats {
        let merged = CacheStats::default();
        for s in &self.shards {
            merged.hits.fetch_add(s.stats.hits.load(Ordering::Relaxed), Ordering::Relaxed);
            merged.misses.fetch_add(s.stats.misses.load(Ordering::Relaxed), Ordering::Relaxed);
            merged
                .evictions
                .fetch_add(s.stats.evictions.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        merged
    }

    /// Point-in-time view of every shard (counters, residency, budget).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.inner.lock();
                ShardSnapshot {
                    hits: s.stats.hits.load(Ordering::Relaxed),
                    misses: s.stats.misses.load(Ordering::Relaxed),
                    evictions: s.stats.evictions.load(Ordering::Relaxed),
                    resident_bytes: inner.bytes as u64,
                    budget: s.budget as u64,
                    entries: inner.entries.len() as u64,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; n])
    }

    /// One shard: the exact pre-sharding FIFO semantics across all paths.
    fn single(capacity: usize, release_on_zero: bool) -> FileCache {
        FileCache::new(CacheConfig { capacity, release_on_zero, shards: 1 })
    }

    #[test]
    fn miss_then_hit() {
        let c = FileCache::new(CacheConfig::default());
        assert!(c.open("f").is_none());
        c.insert("f", data(100, 1));
        let got = c.open("f").unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(c.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(c.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fifo_eviction_order() {
        let c = single(250, false);
        c.insert("a", data(100, 0));
        c.close("a");
        c.insert("b", data(100, 0));
        c.close("b");
        // Inserting c (100 B) exceeds 250: evict "a" (oldest) only.
        c.insert("c", data(100, 0));
        c.close("c");
        assert!(c.open("a").is_none(), "a should be evicted first");
        assert!(c.open("b").is_some(), "b should survive");
    }

    #[test]
    fn in_use_entries_skip_eviction() {
        let c = single(250, false);
        c.insert("a", data(100, 0)); // stays open (count 1)
        c.insert("b", data(100, 0));
        c.close("b");
        c.insert("c", data(100, 0)); // pressure: must evict b, not in-use a
        assert!(c.open("a").is_some(), "in-use entry must survive");
        assert!(c.open("b").is_none(), "idle entry evicted instead");
    }

    #[test]
    fn skipped_in_use_entry_evicted_after_close() {
        let c = single(250, false);
        c.insert("a", data(100, 0)); // stays open through the first squeeze
        c.insert("b", data(100, 0));
        c.close("b");
        // First pressure event: the scan pops "a", sees it in use and
        // requeues it, then evicts idle "b" instead.
        c.insert("c", data(100, 0));
        c.close("c");
        assert!(c.open("a").is_some(), "in-use entry survives the squeeze");
        c.close("a"); // from the probe open
        assert!(c.open("b").is_none(), "idle entry evicted in its place");
        // "a" kept its place in the queue (requeued, not forgotten): once
        // closed, the next pressure event evicts it.
        c.close("a"); // from the original insert — now idle
        c.insert("d", data(100, 0));
        c.close("d");
        assert!(c.open("a").is_none(), "closed entry evicted on next pressure");
        assert!(c.open("c").is_some(), "younger entry survives");
        assert!(c.open("d").is_some());
    }

    #[test]
    fn purge_drops_even_in_use_entries() {
        let c = FileCache::new(CacheConfig::default());
        c.insert("f", data(100, 0)); // open-count 1
        assert!(c.purge("f"), "purge removes despite the open count");
        assert!(c.open("f").is_none());
        assert_eq!(c.resident_bytes(), 0);
        assert!(!c.purge("f"), "second purge is a no-op");
        c.close("f"); // stale close after purge must not underflow
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn eager_release_on_zero() {
        let c = FileCache::new(CacheConfig {
            capacity: 1 << 20,
            release_on_zero: true,
            ..Default::default()
        });
        c.insert("f", data(100, 0));
        assert_eq!(c.len(), 1);
        c.close("f");
        assert_eq!(c.len(), 0, "figure-4 policy releases at zero count");
        assert_eq!(c.stats().evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn eager_release_waits_for_all_closers() {
        let c = FileCache::new(CacheConfig {
            capacity: 1 << 20,
            release_on_zero: true,
            ..Default::default()
        });
        c.insert("f", data(100, 0)); // count 1
        c.open("f").unwrap(); // count 2
        c.close("f"); // count 1: stays
        assert_eq!(c.len(), 1);
        c.close("f"); // count 0: released
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn concurrent_insert_shares_one_buffer() {
        let c = FileCache::new(CacheConfig::default());
        let a = c.insert("f", data(50, 1));
        let b = c.insert("f", data(50, 2)); // loser: existing entry wins
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b[0], 1);
        assert_eq!(c.resident_bytes(), 50, "no double accounting");
    }

    #[test]
    fn resident_bytes_tracks_sizes() {
        let c = FileCache::new(CacheConfig::default());
        c.insert("a", data(10, 0));
        c.insert("b", data(30, 0));
        assert_eq!(c.resident_bytes(), 40);
        c.close("a");
        c.close("b");
        assert_eq!(c.resident_bytes(), 40, "bounded policy keeps idle entries");
    }

    #[test]
    fn oversized_entry_still_cached() {
        // A file bigger than capacity: nothing to evict, entry admitted
        // anyway (it is in use by the opener).
        let c = single(100, false);
        c.insert("big", data(500, 0));
        assert!(c.open("big").is_some());
    }

    #[test]
    fn shard_budgets_sum_to_capacity() {
        for (capacity, shards) in [(1000usize, 7usize), (4096, 8), (5, 8), (0, 3), (100, 1)] {
            let c = FileCache::new(CacheConfig { capacity, release_on_zero: false, shards });
            let snaps = c.shard_snapshots();
            assert_eq!(snaps.len(), shards);
            assert_eq!(snaps.iter().map(|s| s.budget).sum::<u64>(), capacity as u64);
        }
    }

    #[test]
    fn paths_map_to_stable_shards() {
        let c = FileCache::new(CacheConfig { capacity: 1 << 20, ..Default::default() });
        let shard = c.shard_of("some/path.bin");
        for _ in 0..3 {
            assert_eq!(c.shard_of("some/path.bin"), shard);
        }
        // A reasonable spread: many paths should not collapse onto one
        // shard.
        let used: std::collections::HashSet<usize> =
            (0..64).map(|i| c.shard_of(&format!("p/f{i:03}.bin"))).collect();
        assert!(used.len() > 1, "64 paths landed on one shard");
    }

    #[test]
    fn merged_stats_sum_per_shard_counters() {
        let c = FileCache::new(CacheConfig { capacity: 1 << 20, ..Default::default() });
        for i in 0..40 {
            let p = format!("f{i}");
            assert!(c.open(&p).is_none());
            c.insert(&p, data(16, 0));
            c.close(&p);
            c.open(&p).unwrap();
            c.close(&p);
        }
        let merged = c.stats();
        let snaps = c.shard_snapshots();
        assert_eq!(merged.hits.load(Ordering::Relaxed), snaps.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(
            merged.misses.load(Ordering::Relaxed),
            snaps.iter().map(|s| s.misses).sum::<u64>()
        );
        assert_eq!(merged.hits.load(Ordering::Relaxed), 40);
        assert_eq!(merged.misses.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn partial_entries_charge_resident_bytes_not_declared_size() {
        // Regression: a partial entry of a 1 GiB file with one 64 B chunk
        // resident must charge 64 B, not 1 GiB.
        let c = single(1000, false);
        c.insert_chunk("huge", 64, 1 << 30, 3, data(64, 7));
        assert_eq!(c.resident_bytes(), 64);
        assert_eq!(
            c.residency("huge"),
            Some(Residency::Partial { chunk_size: 64, total_len: 1 << 30, chunks: vec![3] })
        );
    }

    #[test]
    fn budget_full_cache_still_admits_small_range_reads() {
        // Regression companion: fill the budget with in-use full entries,
        // then a small chunk insert must still be admitted (charged at
        // chunk size) and serve range hits.
        let c = single(200, false);
        c.insert("a", data(100, 1)); // in use (count 1)
        c.insert("b", data(100, 2)); // in use (count 1)
        assert_eq!(c.resident_bytes(), 200);
        c.insert_chunk("big", 32, 4096, 0, data(32, 9));
        let got = c.open_range("big", 4, 20).expect("chunk-resident range admitted");
        assert_eq!(got, vec![9u8; 16]);
    }

    #[test]
    fn range_hits_from_partial_and_full_entries() {
        let c = single(1 << 20, false);
        // Partial: chunks 0 and 1 of a 3-chunk file (chunk_size 10).
        c.insert_chunk("p", 10, 25, 0, Arc::new((0..10u8).collect()));
        c.insert_chunk("p", 10, 25, 1, Arc::new((10..20u8).collect()));
        assert_eq!(c.open_range("p", 5, 15).unwrap(), (5..15u8).collect::<Vec<_>>());
        assert_eq!(c.open_range("p", 0, 0).unwrap(), Vec::<u8>::new());
        assert!(c.open_range("p", 15, 25).is_none(), "chunk 2 not resident");
        assert!(c.open_range("p", 0, 26).is_none(), "past EOF");
        // Full entries serve any in-bounds range.
        c.insert("f", Arc::new((0..100u8).collect()));
        assert_eq!(c.open_range("f", 90, 100).unwrap(), (90..100u8).collect::<Vec<_>>());
        assert!(c.open_range("f", 90, 101).is_none());
    }

    #[test]
    fn whole_file_open_misses_partial_entries() {
        let c = single(1 << 20, false);
        c.insert_chunk("p", 10, 30, 0, data(10, 1));
        assert!(c.open("p").is_none(), "partial entry is not a whole file");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn full_insert_supersedes_partial_entry() {
        let c = single(1 << 20, false);
        c.insert_chunk("p", 10, 30, 0, data(10, 1));
        c.insert_chunk("p", 10, 30, 2, data(10, 2));
        assert_eq!(c.resident_bytes(), 20);
        let full = Arc::new(vec![5u8; 30]);
        c.insert("p", Arc::clone(&full));
        // The entry is now exactly what a cold full read would leave.
        assert_eq!(c.residency("p"), Some(Residency::Full));
        assert_eq!(c.resident_bytes(), 30);
        let got = c.open("p").unwrap();
        assert!(Arc::ptr_eq(&got, &full));
    }

    #[test]
    fn duplicate_chunk_insert_not_double_charged() {
        let c = single(1 << 20, false);
        c.insert_chunk("p", 10, 30, 1, data(10, 1));
        c.insert_chunk("p", 10, 30, 1, data(10, 2));
        assert_eq!(c.resident_bytes(), 10);
        assert_eq!(c.open_range("p", 10, 12).unwrap(), vec![1, 1], "first chunk wins");
    }

    #[test]
    fn a_chunk_prefix_serves_only_windows_it_reaches_and_grows_by_the_difference() {
        let pool = Arc::new(crate::bufpool::BufPool::default());
        let cfg = CacheConfig { capacity: 1 << 20, release_on_zero: false, shards: 1 };
        let c = FileCache::with_recycle(cfg, Arc::clone(&pool));
        let chunk = |n: u8| Arc::new((10..10 + n).collect::<Vec<u8>>());
        c.insert_chunk("p", 10, 25, 1, chunk(4));
        assert_eq!(c.resident_bytes(), 4);
        assert_eq!(c.open_range("p", 11, 14).unwrap(), vec![11, 12, 13]);
        assert!(c.open_range("p", 12, 15).is_none(), "byte 14 is past the prefix");
        assert!(c.open_range("p", 12, 25).is_none(), "chunk 2 is not resident");
        // A shorter decode of the same chunk changes nothing.
        c.insert_chunk("p", 10, 25, 1, chunk(2));
        assert_eq!(c.resident_bytes(), 4);
        // A longer one replaces it, charged the difference; the shorter
        // buffer goes back to the pool.
        let old = Arc::new(Vec::with_capacity(1 << 12));
        c.insert_chunk("q", 10, 25, 0, Arc::clone(&old));
        drop(old);
        c.insert_chunk("q", 10, 25, 0, chunk(10));
        assert_eq!(pool.stats().returns, 1, "the shorter prefix is recycled");
        c.insert_chunk("p", 10, 25, 1, chunk(10));
        assert_eq!(c.resident_bytes(), 20);
        assert_eq!(c.open_range("p", 12, 20).unwrap(), (12..20u8).collect::<Vec<_>>());
    }

    #[test]
    fn partial_entries_evict_whole_under_pressure() {
        let c = single(100, false);
        c.insert_chunk("p", 40, 80, 0, data(40, 1));
        c.insert_chunk("p", 40, 80, 1, data(40, 1));
        assert_eq!(c.resident_bytes(), 80);
        c.insert("q", data(80, 2)); // pressure: evicts the idle partial entry
        assert!(c.residency("p").is_none(), "partial entry evicted whole");
        assert_eq!(c.resident_bytes(), 80);
    }

    #[test]
    fn extending_partial_entry_over_budget_keeps_accounting_consistent() {
        // Regression: extending a partial entry can trip make_room into
        // evicting the very entry being extended (open-count 0, bytes
        // already past budget because in-use/oversized entries are
        // admitted anyway). The shard charge must include the new chunk
        // *before* the trim — otherwise the eviction underflows the byte
        // counter and the entry is re-charged after it is gone.
        let c = single(50, false);
        c.insert_chunk("p", 60, 120, 0, data(60, 1)); // oversized, admitted
        assert_eq!(c.resident_bytes(), 60);
        c.insert_chunk("p", 60, 120, 1, data(10, 2)); // pressure evicts "p" itself
        assert!(c.residency("p").is_none(), "over-budget entry evicted whole");
        assert_eq!(c.resident_bytes(), 0, "no ghost charge for the evicted entry");
        assert_eq!(c.stats().evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn superseded_entry_requeued_when_its_slot_was_consumed() {
        // Regression: the partial-supersede branch keeps the old queue
        // slot, but make_room in that same branch can pop it while the
        // entry is momentarily absent (slot dropped, nothing evicted).
        // The re-inserted full entry must get a fresh slot, or it can
        // never be evicted under pressure.
        let c = single(100, false);
        c.insert_chunk("p", 60, 120, 0, data(60, 1));
        c.insert_chunk("q", 30, 30, 0, data(30, 2));
        // Superseding "p" needs room: make_room pops p's orphaned slot,
        // then evicts idle "q".
        c.insert("p", data(80, 3));
        c.close("p");
        assert_eq!(c.residency("p"), Some(Residency::Full));
        assert!(c.residency("q").is_none(), "idle partial evicted for room");
        assert_eq!(c.resident_bytes(), 80);
        // "p" must still hold a queue slot: the next squeeze evicts it.
        c.insert("r", data(80, 4));
        assert!(c.residency("p").is_none(), "superseded entry evictable under pressure");
        assert_eq!(c.resident_bytes(), 80);
    }

    #[test]
    fn sharded_parallel_open_close_is_consistent() {
        let c = Arc::new(FileCache::new(CacheConfig {
            capacity: 1 << 16,
            release_on_zero: false,
            shards: 4,
        }));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..200 {
                        let path = format!("f{}", (i + t) % 8);
                        match c.open(&path) {
                            Some(_) => c.close(&path),
                            None => {
                                c.insert(&path, data(64, 0));
                                c.close(&path);
                            }
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 8);
        // All counts returned to zero and every touch was counted.
        let stats = c.stats();
        let total = stats.hits.load(Ordering::Relaxed) + stats.misses.load(Ordering::Relaxed);
        assert!(total >= 4 * 200, "every open accounted: {total}");
    }
}
