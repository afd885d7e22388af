//! What put-then-unlink traffic may not grow: the write-ahead log on a
//! node whose live set stays small, and the namespace on the rank that
//! owns a file's metadata.
//!
//! Both grew one record or one entry per client write before: the flush
//! that trims the log was triggered by the memtable's *live* bytes, which
//! an unlink shrinks, and `unlink` removed a file's metadata on the
//! writer's rank only. A checkpoint replica (every generation is put,
//! then garbage-collected) and a metadata owner see exactly this traffic
//! for the whole length of a training run.

use std::sync::Arc;
use std::time::Duration;

use fanstore_repro::store::client::meta_owner;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::metrics::MetricsRegistry;
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::wal::{RamMedia, WalConfig, WalMedia, WalStore};
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
