//! Property tests for the sharded decompressed-file cache (§IV-C3):
//! per-shard byte budgets hold under arbitrary op sequences, the merged
//! counters are exactly the per-shard sums, and each shard behaves
//! exactly like an independent single-lock FIFO cache of its budget —
//! the equivalence the sharding refactor rests on.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use fanstore_repro::store::cache::{CacheConfig, FileCache};
use proptest::prelude::*;

/// A get/insert/evict script step over a small path pool.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `open()` (followed by `close()` on a hit, so entries never stay
    /// pinned between steps).
    Open(usize),
    /// `insert()` of the given byte size, immediately `close()`d.
    Insert(usize, usize),
    /// `purge()` (the unlink path — forced eviction).
    Purge(usize),
}

impl Op {
    fn path_idx(&self) -> usize {
        match *self {
            Op::Open(p) | Op::Insert(p, _) | Op::Purge(p) => p,
        }
    }
}

/// Observable result of one step — what an equivalence check can compare.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
    /// `insert` returned the canonical buffer of this length (differs
    /// from the inserted size when an existing entry won).
    Inserted(usize),
    Purged(bool),
}

fn path(i: usize) -> String {
    format!("d{}/f{i:02}.bin", i % 3)
}

fn apply(c: &FileCache, op: Op) -> Outcome {
    match op {
        Op::Open(p) => {
            let path = path(p);
            match c.open(&path) {
                Some(_) => {
                    c.close(&path);
                    Outcome::Hit
                }
                None => Outcome::Miss,
            }
        }
        Op::Insert(p, size) => {
            let path = path(p);
            let canonical = c.insert(&path, Arc::new(vec![(p % 251) as u8; size]));
            let len = canonical.len();
            c.close(&path);
            Outcome::Inserted(len)
        }
        Op::Purge(p) => Outcome::Purged(c.purge(&path(p))),
    }
}

fn op_strategy(paths: usize, max_size: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..paths).prop_map(Op::Open),
        (0..paths, 1..=max_size).prop_map(|(p, s)| Op::Insert(p, s)),
        (0..paths).prop_map(Op::Purge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With no entry held open between steps and no entry larger than a
    /// shard's budget slice, every shard stays within its budget at every
    /// step — and therefore the whole cache never exceeds `capacity`.
    #[test]
    fn byte_budget_never_exceeded(
        ops in proptest::collection::vec(op_strategy(12, 256), 1..120),
    ) {
        let capacity = 2048usize; // 4 shards x 512 >= max entry size 256
        let c = FileCache::new(CacheConfig { capacity, release_on_zero: false, shards: 4 });
        for &op in &ops {
            apply(&c, op);
            for (i, s) in c.shard_snapshots().iter().enumerate() {
                prop_assert!(
                    s.resident_bytes <= s.budget,
                    "shard {i}: resident {} over budget {}", s.resident_bytes, s.budget
                );
            }
            prop_assert!(c.resident_bytes() <= capacity);
        }
    }

    /// The merged `CacheStats` (and the merged residency/entry views) are
    /// exactly the sums over the per-shard snapshots.
    #[test]
    fn merged_stats_equal_per_shard_sums(
        ops in proptest::collection::vec(op_strategy(16, 128), 1..150),
    ) {
        let c = FileCache::new(CacheConfig { capacity: 4096, release_on_zero: false, shards: 8 });
        for &op in &ops {
            apply(&c, op);
        }
        let merged = c.stats();
        let snaps = c.shard_snapshots();
        prop_assert_eq!(
            merged.hits.load(Ordering::Relaxed),
            snaps.iter().map(|s| s.hits).sum::<u64>()
        );
        prop_assert_eq!(
            merged.misses.load(Ordering::Relaxed),
            snaps.iter().map(|s| s.misses).sum::<u64>()
        );
        prop_assert_eq!(
            merged.evictions.load(Ordering::Relaxed),
            snaps.iter().map(|s| s.evictions).sum::<u64>()
        );
        prop_assert_eq!(
            c.resident_bytes() as u64,
            snaps.iter().map(|s| s.resident_bytes).sum::<u64>()
        );
        prop_assert_eq!(c.len() as u64, snaps.iter().map(|s| s.entries).sum::<u64>());
    }

    /// Shard independence: replaying each shard's op subsequence on a
    /// fresh *single-lock* cache sized to that shard's budget reproduces
    /// the sharded cache's per-op outcomes (hit/miss/dedup/purge) and its
    /// final per-shard counters exactly. Sharding changes lock
    /// granularity, not semantics.
    #[test]
    fn sharded_outcomes_match_single_lock_reference(
        ops in proptest::collection::vec(op_strategy(12, 200), 1..150),
    ) {
        let shards = 4usize;
        let c = FileCache::new(CacheConfig { capacity: 1600, release_on_zero: false, shards });
        let observed: Vec<(usize, Outcome)> =
            ops.iter().map(|&op| (c.shard_of(&path(op.path_idx())), apply(&c, op))).collect();
        let snaps = c.shard_snapshots();
        for (s, snap) in snaps.iter().enumerate() {
            let reference = FileCache::new(CacheConfig {
                capacity: snap.budget as usize,
                release_on_zero: false,
                shards: 1,
            });
            let mut expect = Vec::new();
            for (&op, (shard, _)) in ops.iter().zip(&observed) {
                if *shard == s {
                    expect.push(apply(&reference, op));
                }
            }
            let got: Vec<Outcome> = observed
                .iter()
                .filter(|(shard, _)| *shard == s)
                .map(|(_, o)| o.clone())
                .collect();
            prop_assert_eq!(&expect, &got, "shard {} diverged from single-lock replay", s);
            let r = reference.stats();
            prop_assert_eq!(r.hits.load(Ordering::Relaxed), snap.hits);
            prop_assert_eq!(r.misses.load(Ordering::Relaxed), snap.misses);
            prop_assert_eq!(r.evictions.load(Ordering::Relaxed), snap.evictions);
            prop_assert_eq!(reference.resident_bytes() as u64, snap.resident_bytes);
            prop_assert_eq!(reference.len() as u64, snap.entries);
        }
    }
}

/// Deterministic spot check of the headline invariant (no proptest
/// shrink noise): sequential flooding through a 4-shard cache lands every
/// shard exactly at or under budget.
#[test]
fn flooding_respects_shard_budgets() {
    let c = FileCache::new(CacheConfig { capacity: 1024, release_on_zero: false, shards: 4 });
    for i in 0..200 {
        let p = format!("flood/f{i:03}");
        c.insert(&p, Arc::new(vec![0u8; 64]));
        c.close(&p);
    }
    for s in c.shard_snapshots() {
        assert!(s.resident_bytes <= s.budget, "{s:?}");
    }
    assert!(c.resident_bytes() <= 1024);
    assert!(c.stats().evictions.load(Ordering::Relaxed) > 0, "pressure actually evicted");
}
