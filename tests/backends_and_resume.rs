//! Integration: the disk (SSD) backend and the checkpoint/resume
//! workflow, end to end across crates.

use fanstore_repro::store::backend::BackendKind;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::train::epoch::{run_epoch_range, EpochConfig};
use fanstore_repro::train::prefetch::{prefetched_epoch, PrefetchConfig};
use fanstore_repro::train::resume::{latest_checkpoint_epoch, run_epochs_resuming};

fn dataset(n: usize) -> Vec<(String, Vec<u8>)> {
    (0..n)
        .map(|i| (format!("ds/c{}/f{i:03}.bin", i % 2), format!("x{i}").repeat(300).into_bytes()))
        .collect()
}

#[test]
fn disk_backend_serves_identical_bytes() {
    let files = dataset(10);
    let packed = prepare(files.clone(), &PrepConfig { partitions: 2, ..Default::default() });
    let results = FanStore::run(
        ClusterConfig { nodes: 2, backend: BackendKind::DiskTemp, ..Default::default() },
        packed.partitions,
        |fs| files.iter().all(|(p, d)| &fs.read_whole(p).unwrap() == d),
    );
    assert_eq!(results, vec![true, true]);
}

#[test]
fn disk_backend_supports_epochs_and_prefetch() {
    let files = dataset(12);
    let total: u64 = files.iter().map(|(_, d)| d.len() as u64).sum();
    let packed = prepare(files.clone(), &PrepConfig { partitions: 2, ..Default::default() });
    let results = FanStore::run(
        ClusterConfig { nodes: 2, backend: BackendKind::DiskTemp, ..Default::default() },
        packed.partitions,
        |fs| {
            let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
            let cfg = PrefetchConfig {
                io_threads: 2,
                queue_batches: 2,
                batch_size: 4,
                ..Default::default()
            };
            prefetched_epoch(fs, &paths, &cfg, |_| {}).unwrap()
        },
    );
    assert_eq!(results, vec![total, total]);
}

#[test]
fn capacity_constrained_cluster_rejects_oversized_assignment() {
    let files = dataset(6);
    let packed = prepare(files, &PrepConfig { partitions: 1, ..Default::default() });
    let size = packed.partitions[0].len() as u64;
    // Capacity below the single partition: placement must refuse.
    let result = std::panic::catch_unwind(|| {
        FanStore::run(
            ClusterConfig { nodes: 1, node_capacity: Some(size / 2), ..Default::default() },
            packed.partitions.clone(),
            |_fs| 0usize,
        )
    });
    assert!(result.is_err(), "oversized assignment must be rejected");
}

#[test]
fn capacity_clamps_replication_but_still_runs() {
    let files = dataset(8);
    let packed = prepare(files.clone(), &PrepConfig { partitions: 4, ..Default::default() });
    let max_part = packed.partitions.iter().map(Vec::len).max().unwrap() as u64;
    // Capacity fits ~2 partitions: ask for full replication, get 1 extra
    // round at most; reads must still all succeed.
    let results = FanStore::run(
        ClusterConfig {
            nodes: 4,
            replication: 4,
            node_capacity: Some(max_part * 2 + 64),
            ..Default::default()
        },
        packed.partitions,
        |fs| files.iter().all(|(p, d)| &fs.read_whole(p).unwrap() == d),
    );
    assert_eq!(results, vec![true; 4]);
}

#[test]
fn multi_node_resume_continues_numbering() {
    let files = dataset(8);
    let packed = prepare(files, &PrepConfig { partitions: 2, ..Default::default() });
    let cfg = EpochConfig {
        root: "ds".into(),
        batch_per_node: 4,
        epochs: 4,
        checkpoint_every: 1,
        checkpoint_bytes: 64,
        seed: 5,
        prefetch: None,
    };
    let results =
        FanStore::run(ClusterConfig { nodes: 2, ..Default::default() }, packed.partitions, |fs| {
            // First allocation: 1 epoch, then "crash".
            run_epoch_range(fs, &cfg, 0, 1).unwrap();
            assert_eq!(latest_checkpoint_epoch(fs).unwrap(), Some(1));
            // Resume to completion.
            let (report, from) = run_epochs_resuming(fs, &cfg).unwrap();
            (from, report.checkpoints, latest_checkpoint_epoch(fs).unwrap())
        });
    for (from, checkpoints, latest) in results {
        assert_eq!(from, 1);
        assert_eq!(checkpoints, 3);
        assert_eq!(latest, Some(4));
    }
}
