//! Deterministic stress for the batched read path: 8 client threads per
//! rank on a 4-rank cluster interleave `read_many`, fd-based reads and
//! write/unlink cycles over a shared seed-shuffled manifest while rank
//! 0's fabric links are dead from the first message.
//!
//! Determinism is the point, not a side effect: per-thread slices are
//! disjoint (so cache state per path belongs to exactly one thread) and
//! the only fault is a kill (probabilistic faults consume per-link
//! sequence numbers, which thread interleaving would perturb). Every
//! byte must match the dataset, the concurrent run must reproduce the
//! serial oracle's digests and degraded-op counters exactly, and three
//! same-seed runs must yield identical outcomes.

use std::time::Duration;

use fanstore_repro::compress::crc32::crc32;
use fanstore_repro::mpi::FaultPlan;
use fanstore_repro::store::client::{FailoverConfig, FsClient};
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::FsError;

const NODES: usize = 4;
const THREADS: usize = 8;
const SLICE: usize = 8;
const FILES: usize = THREADS * SLICE; // 64
const ROUNDS: usize = 2;

fn dataset() -> Vec<(String, Vec<u8>)> {
    (0..FILES)
        .map(|i| {
            (
                format!("stress/g{}/s{i:03}.bin", i % 4),
                format!("stress sample {i} ").repeat(30 + i % 7 * 25).into_bytes(),
            )
        })
        .collect()
}

/// Seeded Fisher–Yates over the manifest indices (xorshift64* driver).
fn shuffled_indices(seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut idx: Vec<usize> = (0..FILES).collect();
    for i in (1..FILES).rev() {
        idx.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    idx
}

/// Fold `(path, data)` into a running crc32 digest.
fn absorb(digest: &mut u32, path: &str, data: &[u8]) {
    let mut buf = Vec::with_capacity(4 + path.len() + data.len());
    buf.extend_from_slice(&digest.to_le_bytes());
    buf.extend_from_slice(path.as_bytes());
    buf.extend_from_slice(data);
    *digest = crc32(&buf);
}

/// One thread's fixed op script: alternate `read_many` and fd-based
/// reads over its slice of the shuffled manifest, then a
/// write/read-back/unlink cycle on its own output file. Round 2 replays
/// the slice against a warm cache. Returns a digest of every byte the
/// thread observed.
fn thread_script(fs: &FsClient, tid: usize, slice: &[usize], files: &[(String, Vec<u8>)]) -> u32 {
    let mut digest = 0u32;
    let paths: Vec<String> = slice.iter().map(|&i| files[i].0.clone()).collect();
    for round in 0..ROUNDS {
        for (c, (chunk, want)) in paths.chunks(3).zip(slice.chunks(3)).enumerate() {
            if (c + round) % 2 == 0 {
                for (j, result) in fs.read_many(chunk).into_iter().enumerate() {
                    let data = result.unwrap_or_else(|e| {
                        panic!("t{tid} r{round} read_many {}: {e:?}", chunk[j])
                    });
                    assert_eq!(data, files[want[j]].1, "t{tid} r{round} {}", chunk[j]);
                    absorb(&mut digest, &chunk[j], &data);
                }
            } else {
                for (path, &i) in chunk.iter().zip(want) {
                    let fd = fs.open(path).unwrap_or_else(|e| panic!("t{tid} open {path}: {e:?}"));
                    let mut data = Vec::new();
                    let mut buf = [0u8; 301];
                    loop {
                        let n = fs.read(fd, &mut buf).unwrap();
                        if n == 0 {
                            break;
                        }
                        data.extend_from_slice(&buf[..n]);
                    }
                    fs.close(fd).unwrap();
                    assert_eq!(data, files[i].1, "t{tid} r{round} {path}");
                    absorb(&mut digest, path, &data);
                }
            }
        }
        // Own-output leg: create, read back, unlink — and a second unlink
        // must report the file gone.
        let out = format!("out/r{}t{tid}/gen{round}.bin", fs.rank());
        let payload = format!("r{} t{tid} round {round} ", fs.rank()).repeat(40).into_bytes();
        fs.write_whole(&out, &payload).unwrap();
        let back = fs.read_whole(&out).unwrap();
        assert_eq!(back, payload, "t{tid} r{round} own output");
        absorb(&mut digest, &out, &back);
        fs.unlink(&out).unwrap();
        assert!(matches!(fs.unlink(&out), Err(FsError::NotFound(_))), "t{tid} double unlink");
    }
    digest
}

/// Per-rank outcome: per-thread content digests plus every degraded-op
/// counter the recovery machinery increments.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RankOutcome {
    digests: Vec<u32>,
    degraded: u64,
    read_through: u64,
    rpc_timeouts: u64,
    crc_failures: u64,
    files_written: u64,
    batches: u64,
    fallbacks: u64,
}

fn run_stress(seed: u64, parallel: bool) -> Vec<RankOutcome> {
    let files = dataset();
    let manifest = shuffled_indices(seed);
    let packed = prepare(files.clone(), &PrepConfig { partitions: 8, ..Default::default() });
    let cfg = ClusterConfig {
        nodes: NODES,
        replication: 2,
        read_through: true,
        // Rank 0's links are dead before the first message: survivors
        // fail over to ring replicas, rank 0 itself reads through.
        fault_plan: Some(FaultPlan::new(seed).kill(0, 0)),
        failover: FailoverConfig {
            rpc_timeout: Duration::from_millis(500),
            attempts_per_replica: 1,
            backoff_base: Duration::from_micros(100),
            backoff_max: Duration::from_millis(1),
            seed,
            ..Default::default()
        },
        ..Default::default()
    };
    FanStore::run(cfg, packed.partitions, |fs| {
        let digests: Vec<u32> = if parallel {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|tid| {
                        let slice = &manifest[tid * SLICE..(tid + 1) * SLICE];
                        let files = &files;
                        s.spawn(move || thread_script(fs, tid, slice, files))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("stress thread")).collect()
            })
        } else {
            // Serial oracle: the same scripts, one after another.
            (0..THREADS)
                .map(|tid| {
                    thread_script(fs, tid, &manifest[tid * SLICE..(tid + 1) * SLICE], &files)
                })
                .collect()
        };
        let stats = &fs.state().stats;
        let snap = fs.state().metrics.snapshot();
        let counter = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
        RankOutcome {
            digests,
            degraded: stats.degraded_reads.get(),
            read_through: stats.read_through_reads.get(),
            rpc_timeouts: stats.rpc_timeouts.get(),
            crc_failures: stats.crc_failures.get(),
            files_written: stats.files_written.get(),
            batches: counter("client.get_many.batches"),
            fallbacks: counter("client.get_many.fallbacks"),
        }
    })
}

const SEED: u64 = 0x57E5_5EED;

#[test]
fn concurrent_stress_matches_serial_oracle() {
    let oracle = run_stress(SEED, false);
    let live = run_stress(SEED, true);
    assert_eq!(oracle, live, "8-thread interleaving must not change bytes or degraded-op counts");

    // The schedule actually stressed the degraded paths.
    for (rank, o) in live.iter().enumerate() {
        assert_eq!(o.crc_failures, 0, "rank {rank}: kill-only plan never corrupts");
        assert_eq!(o.files_written, (THREADS * ROUNDS) as u64, "rank {rank}");
        assert!(o.batches > 0, "rank {rank}: read_many exercised: {o:?}");
    }
    assert!(live[0].read_through > 0, "rank 0 is cut off; it must read through: {live:?}");
    let survivor_timeouts: u64 = live[1..].iter().map(|o| o.rpc_timeouts).sum();
    assert!(survivor_timeouts > 0, "survivors must notice rank 0 is dead: {live:?}");
    for (rank, o) in live.iter().enumerate().skip(1) {
        assert_eq!(o.read_through, 0, "rank {rank} reaches the ring replica instead: {o:?}");
    }
}

#[test]
fn three_seeded_runs_identical_outcomes() {
    let first = run_stress(SEED ^ 0xA5A5, true);
    let second = run_stress(SEED ^ 0xA5A5, true);
    let third = run_stress(SEED ^ 0xA5A5, true);
    assert_eq!(first, second, "run 2 diverged");
    assert_eq!(second, third, "run 3 diverged");
    let degraded: u64 = first.iter().map(|o| o.degraded).sum();
    assert!(degraded > 0, "the dead rank must force degraded reads: {first:?}");
}
