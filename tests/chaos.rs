//! Chaos test: seeded fault injection against a live training run.
//!
//! A 4-node cluster with ring replication runs two epochs while the
//! fabric kills rank 0's service links mid-epoch and corrupts ~1% of
//! payloads. Every rank must still deliver every byte — survivors by
//! failing over to ring replicas, the victim by reading through to the
//! shared-file-system copy — and because every fault decision is a pure
//! function of the seed, the degraded-read counters must be *identical*
//! across two runs of the same plan.

use std::time::Duration;

use fanstore_repro::mpi::FaultPlan;
use fanstore_repro::store::client::FailoverConfig;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::train::epoch::{run_epochs, EpochConfig};

const NODES: usize = 4;
const FILES: usize = 24;
const EPOCHS: usize = 2;

fn dataset() -> Vec<(String, Vec<u8>)> {
    (0..FILES)
        .map(|i| {
            (
                format!("train/shard{}/sample{i:03}.bin", i % 4),
                format!("sample {i} payload ").repeat(60).into_bytes(),
            )
        })
        .collect()
}

/// Per-rank outcome of one chaotic run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RankOutcome {
    bytes_read: u64,
    iterations: usize,
    degraded: u64,
    read_through: u64,
    rpc_timeouts: u64,
    crc_failures: u64,
}

fn chaotic_run(seed: u64) -> Vec<RankOutcome> {
    let files = dataset();
    let packed = prepare(files, &PrepConfig { partitions: 8, ..Default::default() });
    let cfg = ClusterConfig {
        nodes: NODES,
        replication: 2, // every partition has one ring replica
        read_through: true,
        fault_plan: Some(
            // Rank 0's service links go dark after 3 messages each;
            // ~1% of surviving payloads are corrupted in flight.
            FaultPlan::new(seed).kill(0, 3).corrupt_prob(0.01),
        ),
        failover: Some(FailoverConfig {
            rpc_timeout: Duration::from_millis(500),
            attempts_per_replica: 2,
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(2),
            seed,
            ..Default::default()
        }),
        ..Default::default()
    };
    let epoch_cfg = EpochConfig {
        root: "train".into(),
        batch_per_node: 4,
        epochs: EPOCHS,
        checkpoint_every: 0,
        checkpoint_bytes: 0,
        seed,
        prefetch: None,
    };
    FanStore::run(cfg, packed.partitions, |fs| {
        let report = run_epochs(fs, &epoch_cfg).expect("training survives the faults");
        let stats = &fs.state().stats;
        RankOutcome {
            bytes_read: report.bytes_read,
            iterations: report.iterations,
            degraded: report.degraded,
            read_through: stats.read_through_reads.get(),
            rpc_timeouts: stats.rpc_timeouts.get(),
            crc_failures: stats.crc_failures.get(),
        }
    })
}

#[test]
fn training_survives_a_dead_rank_and_corruption() {
    let total_bytes: u64 = dataset().iter().map(|(_, d)| d.len() as u64).sum();
    let outcomes = chaotic_run(0xC4A0_5EED);

    for (rank, o) in outcomes.iter().enumerate() {
        // Every byte of every epoch arrived intact on every rank — the
        // CRC check rejects corrupted replies before they reach training.
        assert_eq!(
            o.bytes_read,
            total_bytes * EPOCHS as u64,
            "rank {rank}: every file read once per epoch"
        );
        assert_eq!(o.iterations, FILES / 4 * EPOCHS, "rank {rank}");
    }

    // The kill engaged: ranks that fetched from rank 0 after the cutoff
    // failed over, and the victim itself fell back to read-through.
    let degraded_total: u64 = outcomes.iter().map(|o| o.degraded).sum();
    assert!(degraded_total > 0, "the fault plan must bite: {outcomes:?}");
    assert!(
        outcomes[0].read_through > 0,
        "rank 0's outgoing links are dead; it must read through: {outcomes:?}"
    );
    let survivor_failovers: u64 = outcomes[1..].iter().map(|o| o.rpc_timeouts).sum();
    assert!(survivor_failovers > 0, "survivors must have seen rank 0 time out: {outcomes:?}");
    // Each read-through fallback marks exactly one degraded read, so the
    // degraded counter bounds it from above on every rank.
    for (rank, o) in outcomes.iter().enumerate() {
        assert!(
            o.degraded >= o.read_through,
            "rank {rank}: every read-through is a degraded read: {o:?}"
        );
    }
    // Survivors never need the shared file system: rank 0's partitions
    // are replicated on rank 1, whose links are healthy. (Guards the
    // owner mapping: partition indices must reduce to live ranks.)
    for (rank, o) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(o.read_through, 0, "rank {rank} can reach a replica: {o:?}");
    }
}

/// Per-rank outcome of a batched (GetMany) chaotic run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BatchOutcome {
    entries_ok: usize,
    batches: u64,
    fallbacks: u64,
    crc_failures: u64,
    rpc_timeouts: u64,
}

/// Two passes of chunked `read_many` under an in-flight corruption plan:
/// pass 1 exercises GetMany RPCs (and their per-entry recovery), pass 2
/// must be pure cache hits.
fn batched_chaotic_run(seed: u64) -> Vec<BatchOutcome> {
    const CHUNK: usize = 6;
    let files = dataset();
    let packed = prepare(files.clone(), &PrepConfig { partitions: 8, ..Default::default() });
    let cfg = ClusterConfig {
        nodes: NODES,
        replication: 2,
        read_through: true,
        fault_plan: Some(FaultPlan::new(seed).corrupt_prob(0.2)),
        failover: Some(FailoverConfig {
            rpc_timeout: Duration::from_millis(500),
            attempts_per_replica: 2,
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(2),
            seed,
            ..Default::default()
        }),
        ..Default::default()
    };
    FanStore::run(cfg, packed.partitions, |fs| {
        let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
        let mut entries_ok = 0usize;
        for pass in 0..2 {
            for (c, chunk) in paths.chunks(CHUNK).enumerate() {
                for (j, result) in fs.read_many(chunk).into_iter().enumerate() {
                    let i = c * CHUNK + j;
                    let data = result.unwrap_or_else(|e| {
                        panic!("pass {pass} file {i}: per-entry failover must repair: {e:?}")
                    });
                    assert_eq!(data, files[i].1, "pass {pass} file {i}: bytes intact");
                    entries_ok += 1;
                }
            }
        }
        let stats = &fs.state().stats;
        let snap = fs.state().metrics.snapshot();
        let counter = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
        BatchOutcome {
            entries_ok,
            batches: counter("client.get_many.batches"),
            fallbacks: counter("client.get_many.fallbacks"),
            crc_failures: stats.crc_failures.get(),
            rpc_timeouts: stats.rpc_timeouts.get(),
        }
    })
}

#[test]
fn get_many_corruption_fails_only_the_hit_entries() {
    let outcomes = batched_chaotic_run(0xBA7C_4ED5);
    let per_rank_entries = 2 * FILES; // two passes over the manifest
    let per_rank_batches = 2 * (FILES as u64).div_ceil(6);
    for (rank, o) in outcomes.iter().enumerate() {
        assert_eq!(o.entries_ok, per_rank_entries, "rank {rank}: every entry delivered");
        assert_eq!(o.batches, per_rank_batches, "rank {rank}: one batch per read_many call");
    }
    // The plan bit: some GetMany replies (or requests) were corrupted in
    // flight and rejected by the per-entry CRC...
    let crc_total: u64 = outcomes.iter().map(|o| o.crc_failures).sum();
    assert!(crc_total > 0, "corruption plan must bite: {outcomes:?}");
    // ...and only the hit entries fell back to a batch of one on the
    // failover ladder — the rest of each batch rode through untouched.
    let fallbacks: u64 = outcomes.iter().map(|o| o.fallbacks).sum();
    let entries: u64 = outcomes.iter().map(|o| o.entries_ok as u64).sum();
    assert!(fallbacks > 0, "corrupted entries must take the per-entry fallback: {outcomes:?}");
    assert!(
        fallbacks < entries / 2,
        "a one-byte flip must not fail whole batches: {fallbacks}/{entries}: {outcomes:?}"
    );
}

#[test]
fn batched_chaos_same_seed_same_recoveries() {
    // A batch keeps the determinism contract of a batch of one: the
    // fault schedule is a pure function of (seed, link, sequence) and each
    // rank's batch order is fixed, so recovery counters replay exactly.
    let a = batched_chaotic_run(21);
    let b = batched_chaotic_run(21);
    assert_eq!(a, b, "same seed, same per-entry recoveries");
    assert!(a.iter().map(|o| o.crc_failures).sum::<u64>() > 0, "schedule must bite: {a:?}");
}

#[test]
fn same_seed_gives_identical_degraded_counters() {
    // Every fault decision is a pure function of (seed, link, per-link
    // sequence); every rank's request order is seeded. Two runs of the
    // same plan must therefore recover in exactly the same places.
    let a = chaotic_run(7);
    let b = chaotic_run(7);
    assert_eq!(a, b, "same seed, same fault schedule, same recoveries");
    let degraded: u64 = a.iter().map(|o| o.degraded).sum();
    assert!(degraded > 0, "the schedule must contain faults: {a:?}");

    // A different seed shifts the corruption schedule (the kill is
    // seed-independent, so degraded stays non-zero either way).
    let c = chaotic_run(8);
    let degraded_c: u64 = c.iter().map(|o| o.degraded).sum();
    assert!(degraded_c > 0);
}
