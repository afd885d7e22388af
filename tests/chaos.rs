//! Chaos test: seeded fault injection against a live training run.
//!
//! A 4-node cluster with ring replication runs two epochs while the
//! fabric kills rank 0's service links mid-epoch and corrupts ~1% of
//! payloads. Every rank must still deliver every byte — survivors by
//! failing over to ring replicas, the victim by reading through to the
//! shared-file-system copy — and because every fault decision is a pure
//! function of the seed, the degraded-read counters must be *identical*
//! across two runs of the same plan.

use std::time::{Duration, Instant};

use fanstore_repro::mpi::FaultPlan;
use fanstore_repro::store::client::{meta_owner, FailoverConfig};
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::FsError;
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
        failover: FailoverConfig {
            rpc_timeout: Duration::from_millis(500),
            attempts_per_replica: 2,
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(2),
            seed,
            ..Default::default()
        },
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
        failover: FailoverConfig {
            rpc_timeout: Duration::from_millis(500),
            attempts_per_replica: 2,
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(2),
            seed,
            ..Default::default()
        },
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
    // ...and only the hit entries rode the next ladder round — the rest of
    // each batch went through untouched.
    let fallbacks: u64 = outcomes.iter().map(|o| o.fallbacks).sum();
    let entries: u64 = outcomes.iter().map(|o| o.entries_ok as u64).sum();
    assert!(fallbacks > 0, "corrupted entries must ride a later round: {outcomes:?}");
    assert!(
        fallbacks < entries / 2,
        "a one-byte flip must not fail whole batches: {fallbacks}/{entries}: {outcomes:?}"
    );
}

#[test]
fn batched_chaos_same_seed_same_recoveries() {
    // A batch keeps the determinism contract of a single read: the fault
    // schedule is a pure function of (seed, link, sequence), and each
    // rank's batch order and ladder rounds are fixed, so recovery counters
    // replay exactly.
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

#[test]
fn a_default_cluster_degrades_around_a_dead_metadata_owner() {
    // No recovery policy is set: the default one applies. Rank 1 is dead
    // from its first message, and rank 0 writes, stats and reads against
    // it. Every call ends typed, none as `Comm`, and none hangs.
    let owned_by_1 = |stem: &str| {
        (0..).map(|i| format!("{stem}{i}.bin")).find(|p| meta_owner(p, 2) == 1).expect("a path")
    };
    let (written, unseen) = (owned_by_1("out/ckpt_"), owned_by_1("out/never_"));
    let packed = prepare(dataset(), &PrepConfig { partitions: 2, ..Default::default() });
    let cfg = ClusterConfig {
        nodes: 2,
        fault_plan: Some(FaultPlan::new(0xDEAD).kill(1, 0)),
        ..Default::default()
    };
    let timeout = cfg.failover.rpc_timeout;
    let outcomes = FanStore::run(cfg, packed.partitions, |fs| {
        if fs.rank() == 1 {
            // The owner never sees the write: its forward is lost.
            return (fs.stat(&written), None);
        }
        let write = fs.write_whole(&written, b"weights");
        let forward_failures = fs.state().stats.meta_forward_failures.get();
        let remote =
            dataset().into_iter().map(|(p, _)| p).find(|p| fs.state().owner_of(p) == Some(1));
        let remote = remote.expect("a rank-1 file");
        let start = Instant::now();
        let read = fs.read_whole(&remote);
        (fs.stat(&unseen), Some((write, forward_failures, read, start.elapsed())))
    });
    let (stat, rank0) = outcomes[0].clone();
    let (write, forward_failures, read, took) = rank0.expect("rank 0 outcome");
    // The lost metadata forward is counted, not fatal.
    assert!(write.is_ok(), "write_whole with a dead metadata owner: {write:?}");
    assert_eq!(forward_failures, 1, "one lost PUT_META forward");
    // Neither the dead owner nor a rank that must ask it sees the path.
    let owner_stat = &outcomes[1].0;
    assert!(matches!(owner_stat, Err(FsError::NotFound(_))), "owner's stat: {owner_stat:?}");
    assert!(matches!(stat, Err(FsError::NotFound(_))), "stat via the dead owner: {stat:?}");
    // The read walks the owner's ladder and fails typed, inside one rpc
    // deadline: a dead link fails fast, it is not waited out.
    assert!(matches!(read, Err(FsError::Timeout(_))), "read of a rank-1 file: {read:?}");
    assert!(took < timeout, "the read took {took:?}, past the {timeout:?} rpc deadline");
}
