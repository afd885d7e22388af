//! What write traffic may not grow: the write-ahead log on a node whose
//! live set stays small, the namespace on the rank that owns a file's
//! metadata, the syncs a group commit pays and the bytes compaction
//! rewrites.
//!
//! The first two grew one record or one entry per client write before:
//! the flush that trims the log was triggered by the memtable's *live*
//! bytes, which an unlink shrinks, and `unlink` removed a file's metadata
//! on the writer's rank only. A checkpoint replica (every generation is
//! put, then garbage-collected) and a metadata owner see exactly this
//! traffic for the whole length of a training run.
//!
//! The last two are counted, not timed: one fixed overwrite script runs
//! at `commit_every` 16 and at 1, and the store's `wal.*` counters and a
//! byte-counting medium say what each run cost. The medium charges its
//! modelled fsync per sync, so the sync count is the durable-write cost.
//! An unlink-lagged churn then pins the bytes size-tiered compaction
//! rewrites per appended byte and bounds the space it holds in exchange.

use std::sync::Arc;
use std::time::Duration;

use fanstore_repro::compress::{CodecFamily, CodecId};
use fanstore_repro::store::client::meta_owner;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::metrics::MetricsRegistry;
use fanstore_repro::store::metrics::Snapshot;
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::wal::{CrashMedia, RamMedia, WalConfig, WalMedia, WalStore};
use fanstore_repro::store::FsError;

#[test]
fn the_log_is_trimmed_when_writes_supersede_each_other() {
    const VALUE: usize = 64 << 10;
    let cfg = WalConfig { sync_cost: Duration::ZERO, ..WalConfig::default() };
    let budget = cfg.memtable_budget;
    // One put's frame, and room for the framing of the ~32 records a
    // budget holds (the trigger counts key and value bytes).
    let bound = budget + VALUE + 4096;
    let media = RamMedia::new(Duration::ZERO);
    let log_len = || media.read("wal/LOG").map_or(0, |log| log.len());
    let (store, _) =
        WalStore::open(media.clone() as Arc<dyn WalMedia>, cfg.clone(), &MetricsRegistry::new())
            .unwrap();
    for i in 0..1000u32 {
        let key = format!("ckpt/gen{i:04}/seg0");
        store.put(&key, vec![i as u8; VALUE]).unwrap();
        assert!(log_len() <= bound, "write {i}: the log holds {} bytes", log_len());
        store.unlink(&key).unwrap();
        assert!(log_len() <= bound, "unlink {i}: the log holds {} bytes", log_len());
    }
    assert!(store.metrics().flush_count.get() > 0, "superseded writes still reach a flush");
    assert!(store.status().memtable_bytes < budget);
    drop(store);
    assert!(log_len() <= bound, "a restart replays at most one budget: {} bytes", log_len());
    let (store, replay) =
        WalStore::open(media.clone() as Arc<dyn WalMedia>, cfg, &MetricsRegistry::new()).unwrap();
    assert!(replay.records <= 40, "replayed {} records", replay.records);
    // The replayed records count towards the next flush.
    for i in 0..20u32 {
        store.put("ckpt/after-restart", vec![i as u8; VALUE]).unwrap();
        assert!(log_len() <= bound, "write {i} after the restart: {} bytes", log_len());
    }
}

#[test]
fn unlink_removes_the_metadata_its_write_forwarded() {
    const WRITES: usize = 2000;
    const WINDOW: usize = 64;
    let key = |rank: usize, i: usize| format!("out/r{rank}/step-{i:05}.bin");
    let cluster = ClusterConfig {
        nodes: 2,
        wal: Some(WalConfig { sync_cost: Duration::ZERO, ..WalConfig::default() }),
        ..Default::default()
    };
    let no_files = prepare(Vec::new(), &PrepConfig { partitions: 2, ..Default::default() });
    let states = FanStore::run(cluster, no_files.partitions, |fs| {
        let rank = fs.rank();
        for i in 0..WRITES {
            fs.write_whole(&key(rank, i), &[i as u8; 256]).expect("write");
            if i >= WINDOW {
                fs.unlink(&key(rank, i - WINDOW)).expect("unlink");
            }
        }
        // A path this rank unlinked whose metadata the other rank owned:
        // `stat` misses locally and asks the owner.
        let asked = (0..WRITES - WINDOW)
            .map(|i| key(rank, i))
            .find(|k| meta_owner(k, 2) != rank)
            .expect("some key's metadata lives on the peer");
        assert!(matches!(fs.stat(&asked), Err(FsError::NotFound(_))), "{asked} still stats");
        assert!(fs.stat(&key(rank, WRITES - 1)).is_ok());
        Arc::clone(fs.state())
    });
    for (rank, state) in states.iter().enumerate() {
        // This rank's own live window, plus the peer's live files whose
        // metadata was forwarded here.
        let forwarded =
            (WRITES - WINDOW..WRITES).filter(|&i| meta_owner(&key(1 - rank, i), 2) == rank).count();
        assert_eq!(state.meta.read().file_count(), WINDOW + forwarded, "rank {rank}");
        assert_eq!(state.stats.meta_forward_failures.get(), 0);
    }
}

/// The overwrite script: `OPS` puts of `VALUE` bytes round-robin over
/// `KEYS` keys, each version different, then a final flush.
const OPS: usize = 600;
const VALUE: usize = 512;
const KEYS: usize = 64;

/// What one run of the script cost: the store's counters, the syncs the
/// medium saw and the bytes it was asked to mutate.
struct ScriptCost {
    counters: Snapshot,
    media_syncs: u64,
    media_bytes: u64,
}

fn overwrite_script(commit_every: usize) -> ScriptCost {
    const PROBE: u64 = u64::MAX / 2;
    let registry = MetricsRegistry::new();
    let disk = RamMedia::new(Duration::ZERO);
    let probe = CrashMedia::new(disk.clone() as Arc<dyn WalMedia>, PROBE);
    let cfg = WalConfig {
        // The store codec keeps the segment bytes independent of any
        // encoder's choices; the budget sits below the live set so the
        // overwrites flush and the flushes compact.
        codec: CodecId::new(CodecFamily::Store, 0),
        memtable_budget: 24 * 1024,
        commit_every,
        compact_min_segments: 4,
        sync_cost: Duration::ZERO,
        ..WalConfig::default()
    };
    let (store, _) = WalStore::open(probe.clone(), cfg, &registry).expect("open");
    for op in 0..OPS {
        let value = (0..VALUE).map(|j| ((op * 31) as u8).wrapping_add((j / 13) as u8)).collect();
        store.put(&format!("out/obj-{:04}.bin", op % KEYS), value).expect("put");
    }
    store.flush().expect("final flush");
    ScriptCost {
        counters: registry.snapshot(),
        media_syncs: disk.syncs(),
        media_bytes: PROBE - probe.remaining(),
    }
}

#[test]
fn group_commit_pays_a_quarter_of_the_syncs() {
    let grouped = overwrite_script(16);
    let per_write = overwrite_script(1);
    let syncs = |c: &ScriptCost| c.counters.counter("wal.sync.count");
    // Per-write sync commits every put; group commit commits every 16th,
    // plus the part-filled batches a flush commits before it seals.
    assert_eq!(syncs(&per_write), OPS as u64, "commit_every 1");
    assert_eq!(syncs(&grouped), 39, "commit_every 16");
    assert!(syncs(&grouped) * 4 <= syncs(&per_write));
    // The medium also syncs each flushed segment and manifest; those are
    // the same in both runs, and the grouped run still pays at most a
    // quarter of the per-write run's syncs.
    assert_eq!(per_write.media_syncs - syncs(&per_write), grouped.media_syncs - syncs(&grouped));
    assert!(
        grouped.media_syncs * 4 <= per_write.media_syncs,
        "group commit did not amortise syncs: {} vs {}",
        grouped.media_syncs,
        per_write.media_syncs,
    );
}

#[test]
fn overwrites_feed_compaction_and_amplification_is_sane() {
    let c = overwrite_script(16);
    assert!(c.counters.counter("wal.compact.runs") > 0, "threshold compaction never ran");
    assert!(c.counters.counter("wal.compact.dropped") > 0, "overwrites drop superseded versions");
    // Every logical byte hits the log once, so amplification is at least
    // 1; log + segments + manifests + compaction rewrites stay far below
    // 20.
    let write_amp = c.media_bytes as f64 / (OPS * VALUE) as f64;
    assert!((1.0..20.0).contains(&write_amp), "write amplification {write_amp}");
}

/// `durable_writes` in miniature: `SEEDED` objects, then per step a put of
/// a fresh key and an unlink of the key put `LAG` steps earlier, so an
/// unlink lands about six flushes after its put. Values are `VALUE` bytes
/// under the store codec, so every count below is exact.
#[test]
fn unlink_lagged_churn_bounds_write_and_space_amplification() {
    const SEEDED: usize = 48;
    const STEPS: usize = 1500;
    const LAG: usize = 96;
    const VALUE: usize = 1024;
    const BUDGET: usize = 16 * 1024;
    /// Published segment bytes per live stored byte (plus one budget)
    /// allowed after any op; the size-tiered rule measures 2.57 at worst
    /// here, merging everything at four segments measured 1.65.
    const SPACE: usize = 3;
    let registry = MetricsRegistry::new();
    let cfg = WalConfig {
        codec: CodecId::new(CodecFamily::Store, 0),
        memtable_budget: BUDGET,
        compact_min_segments: 4,
        sync_cost: Duration::ZERO,
        ..WalConfig::default()
    };
    let (store, _) = WalStore::open(RamMedia::new(Duration::ZERO), cfg, &registry).expect("open");
    let mut live = 0usize;
    let mut op = |key: String, put: bool| {
        if put {
            store.put(&key, vec![live as u8; VALUE]).unwrap();
            live += 1;
        } else {
            store.unlink(&key).unwrap();
            live -= 1;
        }
        let published: usize = store.status().segments.iter().map(|s| s.bytes as usize).sum();
        let bound = SPACE * (live * VALUE + BUDGET);
        assert!(published <= bound, "{key}: {published} segment bytes, {live} live values");
    };
    for i in 0..SEEDED {
        op(format!("seed/o{i:04}"), true);
    }
    for i in 0..STEPS {
        op(format!("out/w{i:06}"), true);
        if i >= LAG {
            op(format!("out/w{:06}", i - LAG), false);
        }
    }
    // The compaction output per appended byte: 1.609 with size-tiered
    // runs, 2.830 when every flush at four segments merged them all.
    let c = registry.snapshot();
    let (out, appended) = (c.counter("wal.compact.out_bytes"), c.counter("wal.append.bytes"));
    assert_eq!(appended, ((SEEDED + STEPS) * VALUE) as u64);
    assert!(out * 1000 <= appended * 1610, "compaction wrote {out} bytes for {appended} appended");
}
