//! Pooled scratch buffers for the decode hot path.
//!
//! Every remote read ends in "decompress into a fresh `Vec<u8>`", and under
//! a steady training loop that is one heap allocation (plus one free) per
//! sample per epoch. [`BufPool`] recycles those buffers: decode paths take
//! a cleared `Vec` whose capacity already fits the object, and finished
//! buffers flow back when the cache evicts them ([`crate::cache::FileCache`]
//! holds the only reference at eviction time) or when a consumer hands them
//! back explicitly ([`crate::client::FsClient::recycle`]).
//!
//! Design:
//!
//! * **Size-class shelves.** Buffers are binned by capacity into classes
//!   of `2^k` + [`WILD_SLACK`] bytes, for `k` between [`MIN_CLASS_LOG`] and
//!   [`MAX_CLASS_LOG`]. `take(len)` pops from the smallest class whose
//!   `2^k` fits `len`; [`WILD_SLACK`] is the spare capacity the word-wide
//!   decoders reserve behind their output for wild copies, so decoding
//!   never reallocates a pooled buffer, and a file of exactly `2^k` bytes
//!   takes a `2^k` class, not the next one up.
//! * **Bounded retention.** Each shelf keeps at most `max_per_class`
//!   buffers; overflow and out-of-range buffers are dropped (counted as
//!   `discards`), so the pool cannot hoard unbounded memory after a burst.
//! * **Observable.** `hits` / `misses` / `returns` / `discards` counters
//!   back the steady-state regression test: after warmup, a `read_many`
//!   loop that recycles its outputs must hold `misses` flat — zero
//!   per-entry decode allocations.
//!
//! The pool is `Mutex`-per-shelf; decode threads touching different size
//! classes never contend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fanstore_compress::copy::WILD_SLACK;

/// Smallest pooled capacity: `2^10` = 1 KiB. Anything smaller is cheaper
/// to allocate than to shepherd through a shelf.
pub const MIN_CLASS_LOG: u32 = 10;
/// Largest pooled capacity: `2^24` = 16 MiB. Larger buffers are returned
/// to the allocator — they are rare and would pin too much memory idle.
pub const MAX_CLASS_LOG: u32 = 24;
const CLASS_COUNT: usize = (MAX_CLASS_LOG - MIN_CLASS_LOG + 1) as usize;

/// Default retention per size class.
pub const DEFAULT_MAX_PER_CLASS: usize = 32;

/// Monotonic pool counters. All four only ever increase; tests assert on
/// deltas (e.g. "misses flat across epochs two and three").
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
}

/// Point-in-time copy of the pool counters plus current residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from a shelf.
    pub hits: u64,
    /// `take` calls that had to allocate.
    pub misses: u64,
    /// Buffers accepted back onto a shelf.
    pub returns: u64,
    /// Buffers rejected on return (shelf full or capacity out of range).
    pub discards: u64,
    /// Buffers currently parked across all shelves.
    pub idle_buffers: usize,
    /// Total capacity (bytes) parked across all shelves.
    pub idle_bytes: usize,
}

/// A recycling pool of `Vec<u8>` scratch buffers, binned by capacity.
#[derive(Debug)]
pub struct BufPool {
    shelves: [Mutex<Vec<Vec<u8>>>; CLASS_COUNT],
    max_per_class: usize,
    counters: Counters,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_PER_CLASS)
    }
}

/// Class index for a requested length: smallest class whose power of two,
/// `2^(MIN_CLASS_LOG + idx)`, is `>= len` (its capacity adds
/// [`WILD_SLACK`]). `None` when `len` exceeds the largest class.
fn class_for(len: usize) -> Option<usize> {
    if len > 1usize << MAX_CLASS_LOG {
        return None;
    }
    // next_power_of_two().trailing_zeros() is ceil(log2(len)) for len >= 1.
    let ceil_log = len.max(1).next_power_of_two().trailing_zeros();
    Some(ceil_log.max(MIN_CLASS_LOG) as usize - MIN_CLASS_LOG as usize)
}

impl BufPool {
    /// Create a pool retaining at most `max_per_class` buffers per size
    /// class.
    pub fn new(max_per_class: usize) -> Self {
        BufPool {
            shelves: std::array::from_fn(|_| Mutex::new(Vec::new())),
            max_per_class,
            counters: Counters::default(),
        }
    }

    /// Take a cleared buffer with capacity for at least `len` bytes (plus
    /// decoder slack). A shelf hit recycles; a miss allocates at the full
    /// class size so the buffer is maximally reusable when it comes back.
    pub fn take(&self, len: usize) -> Vec<u8> {
        match class_for(len) {
            Some(idx) => {
                if let Some(mut buf) = self.shelves[idx].lock().expect("bufpool shelf").pop() {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    buf.clear();
                    return buf;
                }
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity((1usize << (MIN_CLASS_LOG as usize + idx)) + WILD_SLACK)
            }
            None => {
                // Oversized: allocate exactly; it will be discarded on
                // return rather than parked.
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(len + WILD_SLACK)
            }
        }
    }

    /// Return a buffer to the pool. Buffers whose capacity falls outside
    /// the class range, or whose shelf is full, are dropped (`discards`).
    pub fn put(&self, buf: Vec<u8>) {
        // The room before the decoders' slack; a capacity below the slack
        // wraps to a value the range rejects.
        let room = buf.capacity().wrapping_sub(WILD_SLACK);
        if !((1usize << MIN_CLASS_LOG)..=(1usize << MAX_CLASS_LOG)).contains(&room) {
            self.counters.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Largest class the buffer can fully serve: floor(log2(room)).
        let idx = (usize::BITS - 1 - room.leading_zeros()) as usize - MIN_CLASS_LOG as usize;
        let idx = idx.min(CLASS_COUNT - 1);
        let mut shelf = self.shelves[idx].lock().expect("bufpool shelf");
        if shelf.len() >= self.max_per_class {
            self.counters.discards.fetch_add(1, Ordering::Relaxed);
            return;
        }
        shelf.push(buf);
        self.counters.returns.fetch_add(1, Ordering::Relaxed);
    }

    /// Try to reclaim the buffer behind an `Arc` — succeeds only when the
    /// caller holds the last reference (the cache-eviction case).
    pub fn put_arc(&self, data: Arc<Vec<u8>>) {
        if let Ok(buf) = Arc::try_unwrap(data) {
            self.put(buf);
        }
    }

    /// Snapshot the counters and current residency.
    pub fn stats(&self) -> PoolStats {
        let mut idle_buffers = 0usize;
        let mut idle_bytes = 0usize;
        for shelf in &self.shelves {
            let shelf = shelf.lock().expect("bufpool shelf");
            idle_buffers += shelf.len();
            idle_bytes += shelf.iter().map(Vec::capacity).sum::<usize>();
        }
        PoolStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            returns: self.counters.returns.load(Ordering::Relaxed),
            discards: self.counters.discards.load(Ordering::Relaxed),
            idle_buffers,
            idle_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_for_boundaries() {
        assert_eq!(class_for(0), Some(0));
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(1024), Some(0));
        assert_eq!(class_for(1025), Some(1));
        assert_eq!(class_for(2048), Some(1));
        assert_eq!(class_for(1 << 24), Some(CLASS_COUNT - 1));
        assert_eq!(class_for((1 << 24) + 1), None);
    }

    #[test]
    fn take_put_take_recycles() {
        let pool = BufPool::default();
        let buf = pool.take(4000);
        assert!(buf.capacity() >= 4000 + WILD_SLACK);
        let ptr = buf.as_ptr();
        pool.put(buf);
        let again = pool.take(4000);
        assert_eq!(again.as_ptr(), ptr, "same buffer must come back");
        assert!(again.is_empty(), "recycled buffer must be cleared");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
    }

    #[test]
    fn smaller_request_reuses_larger_buffer() {
        let pool = BufPool::default();
        pool.put(Vec::with_capacity(8192));
        let buf = pool.take(4096);
        assert_eq!(buf.capacity(), 8192);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn larger_request_does_not_get_small_buffer() {
        let pool = BufPool::default();
        pool.put(Vec::with_capacity(2048));
        let buf = pool.take(100_000);
        assert!(buf.capacity() >= 100_000);
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.idle_buffers, 1, "small buffer stays parked");
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufPool::new(2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(4096));
        }
        let s = pool.stats();
        assert_eq!(s.returns, 2);
        assert_eq!(s.discards, 3);
        assert_eq!(s.idle_buffers, 2);
    }

    #[test]
    fn out_of_range_capacities_discarded() {
        let pool = BufPool::default();
        pool.put(Vec::with_capacity(16)); // below MIN
        pool.put(Vec::with_capacity((1 << 24) + 4096)); // above MAX
        let s = pool.stats();
        assert_eq!(s.discards, 2);
        assert_eq!(s.idle_buffers, 0);
    }

    #[test]
    fn put_arc_recycles_only_unique() {
        let pool = BufPool::default();
        let a = Arc::new(Vec::with_capacity(4096));
        let b = Arc::clone(&a);
        pool.put_arc(a);
        assert_eq!(pool.stats().returns, 0, "shared Arc must not be stolen");
        drop(b);
        let c = Arc::new(Vec::with_capacity(4096));
        pool.put_arc(c);
        assert_eq!(pool.stats().returns, 1);
    }

    #[test]
    fn concurrent_take_put_consistent() {
        let pool = Arc::new(BufPool::default());
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let mut buf = pool.take(1024 * (1 + (t + i) % 8));
                    buf.push(t as u8);
                    pool.put(buf);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert_eq!(s.returns + s.discards, 800);
    }
}
