//! Integration: the `client.posix.*` counters capture the §II-B workload
//! profile of a real training run — metadata-heavy at enumeration,
//! read-heavy in steady state — and the trace ring joins a batch's spans
//! across ranks.

use std::sync::Arc;

use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::train::epoch::{run_epochs, EpochConfig};

fn dataset(n: usize) -> Vec<(String, Vec<u8>)> {
    (0..n).map(|i| (format!("tr/d{}/f{i:02}.bin", i % 3), vec![i as u8; 2048])).collect()
}

#[test]
fn trace_captures_training_workload_shape() {
    let packed = prepare(dataset(9), &PrepConfig::default());
    let cfg = EpochConfig {
        root: "tr".into(),
        batch_per_node: 3,
        epochs: 2,
        checkpoint_every: 2,
        checkpoint_bytes: 512,
        seed: 4,
        prefetch: None,
    };
    let snaps = FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
        run_epochs(fs, &cfg).unwrap();
        fs.state().metrics.snapshot()
    });
    let calls = |call: &str| snaps[0].counter(&format!("client.posix.{call}.calls"));
    // Enumeration: readdir for root + 3 subdirs + stat per file (9) and
    // per dir visit; the epoch loop re-enumerates once.
    assert!(calls("readdir") >= 4, "readdirs {}", calls("readdir"));
    assert!(calls("stat") >= 9, "stats {}", calls("stat"));
    // Steady state: every file opened/closed/read once per epoch.
    assert_eq!(calls("open"), 18, "9 files x 2 epochs");
    // Each file: one data read + one EOF read.
    assert!(calls("read") >= 18);
    assert_eq!(snaps[0].counter("client.posix.read.bytes"), 9 * 2048 * 2);
    // One checkpoint publish through the ckpt store: a segment object
    // plus the generation manifest written last (the publish point).
    assert_eq!(calls("write"), 2);
    assert!(
        snaps[0].counter("client.posix.write.bytes") > 0,
        "segment + manifest carry the stored checkpoint"
    );
}

#[test]
fn get_many_mints_one_request_id_and_spans_join_across_ranks() {
    // One `read_many` call = one batch request id. The `client.get_many`
    // span is the root; every per-rank GetMany RPC records a `fabric.rpc`
    // child under the same id on the calling rank, and the serving ranks
    // stamp `daemon.serve` spans with it — so `fanstore report` can
    // join the whole batch back together across recorders.
    let files = dataset(16);
    let packed = prepare(files.clone(), &PrepConfig { partitions: 4, ..Default::default() });
    let per_rank = FanStore::run(
        ClusterConfig { nodes: 4, trace_ring: 8192, ..Default::default() },
        packed.partitions,
        |fs| {
            let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
            for r in fs.read_many(&paths) {
                r.expect("batched read");
            }
            (fs.state().rank, Arc::clone(fs.trace().expect("trace ring on")))
        },
    );
    // Read the rings only now: `FanStore::run` has joined every daemon, so
    // the `daemon.serve` span of a rank's last RPC is recorded. Inside the
    // closure a peer may still be between replying and recording it.
    let per_rank: Vec<_> = per_rank.into_iter().map(|(rank, t)| (rank, t.spans())).collect();
    let all_spans: Vec<&fanstore_repro::store::trace::SpanEvent> =
        per_rank.iter().flat_map(|(_, s)| s).collect();
    for (rank, spans) in &per_rank {
        let batch: Vec<_> = spans.iter().filter(|s| s.stage == "client.get_many").collect();
        assert_eq!(batch.len(), 1, "rank {rank}: one read_many call, one batch span");
        let root = batch[0];
        assert_ne!(root.request, 0, "rank {rank}: batch span carries a real request id");
        // Child RPCs on the same rank ride the batch's id and nest inside
        // the root span's window.
        let rpcs: Vec<_> =
            spans.iter().filter(|s| s.stage == "fabric.rpc" && s.request == root.request).collect();
        assert!(!rpcs.is_empty(), "rank {rank}: 12 remote files need at least one GetMany RPC");
        for rpc in &rpcs {
            assert!(
                rpc.start_us >= root.start_us
                    && rpc.start_us + rpc.dur_us <= root.start_us + root.dur_us,
                "rank {rank}: fabric.rpc child outside its client.get_many root"
            );
        }
        // The serve side of at least one of those RPCs landed on a
        // *different* rank's recorder with the same id.
        assert!(
            all_spans.iter().any(|s| s.stage == "daemon.serve"
                && s.request == root.request
                && s.rank as usize != *rank),
            "rank {rank}: no cross-rank daemon.serve joined to batch {:#x}",
            root.request
        );
        // Deferred decompression also reports under the batch id.
        assert!(
            spans.iter().any(|s| s.stage == "client.decompress" && s.request == root.request),
            "rank {rank}: batched entries decompress under the batch id"
        );
    }
    // Request ids are distinct per batch (per rank), so joins never blur
    // two batches together.
    let mut ids: Vec<u64> = per_rank
        .iter()
        .flat_map(|(_, s)| s.iter())
        .filter(|s| s.stage == "client.get_many")
        .map(|s| s.request)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), per_rank.len(), "one unique batch id per rank");
}

#[test]
fn tracing_disabled_by_default() {
    let packed = prepare(dataset(1), &PrepConfig::default());
    FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
        assert!(fs.trace().is_none());
        // The call mix is a registry count, so it needs no trace ring.
        let before = fs.state().metrics.snapshot();
        let data = fs.read_whole("tr/d0/f00.bin").unwrap();
        let delta = fs.state().metrics.snapshot().delta(&before);
        assert_eq!(delta.counter("client.posix.open.calls"), 1);
        assert_eq!(delta.counter("client.posix.read.bytes"), data.len() as u64);
        assert_eq!(data.len(), 2048);
    });
}
