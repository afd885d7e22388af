//! Range chaos: at-rest single-chunk corruption against the byte-range
//! read path (DESIGN.md §13).
//!
//! One chunk of the owner's stored FCHK container is corrupted (the flip
//! position is a pure function of the seed); a clean replica lives one
//! ring step away. The chunk-level CRCs must confine the damage exactly:
//! ranges that do not cover the corrupted chunk read byte-exact from the
//! owner with zero recovery actions, ranges (and whole-file reads) that
//! do cover it fail the owner's at-rest CRC and fall back through the
//! replica ring — still returning exact bytes. Because every decision in
//! the run is deterministic, three same-seed runs must produce identical
//! degraded-read counters.
//!
//! The cluster is an ordinary `FanStore::run` with one ring replica: the
//! owner, rank 0, overlays the corrupted partition copy after load, behind
//! a barrier, while rank 1 keeps the clean copy it received over the ring.

use std::sync::Barrier;
use std::time::Duration;

use fanstore_repro::store::client::{FailoverConfig, FsClient};
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::pack::{
    chunk_payload, parse_chunk_table, parse_partition, PartitionBuilder,
};
use fanstore_repro::store::prep::{prepare, PrepConfig};

const NODES: usize = 3;
const CHUNK: usize = 4096;
const NCHUNKS: usize = 16;
const PATH: &str = "rc/sample.bin";

/// Deterministic, mildly compressible file body.
fn body() -> Vec<u8> {
    (0..CHUNK * NCHUNKS)
        .map(|j| ((j / 11) as u8).wrapping_mul(31).wrapping_add(j as u8 & 7))
        .collect()
}

/// Build the clean partition and a copy with one seeded chunk corrupted.
/// Returns (clean, corrupted, victim chunk index). The victim avoids the
/// first and last chunk so windows can straddle its boundaries.
fn partitions(seed: u64) -> (Vec<u8>, Vec<u8>, usize) {
    let packed = prepare(
        vec![(PATH.to_string(), body())],
        &PrepConfig { partitions: 1, chunk_size: CHUNK, ..Default::default() },
    );
    let clean = packed.partitions.into_iter().next().expect("one partition");

    let entry = parse_partition(&clean).expect("partition parses").remove(0);
    let table = parse_chunk_table(&entry.data).expect("chunked entry");
    assert_eq!(table.chunks.len(), NCHUNKS, "test geometry");
    let victim = 1 + (seed as usize) % (NCHUNKS - 2);
    let at = table.payload_offset(victim)
        + ((seed >> 8) as usize) % table.chunks[victim].stored_len as usize;
    let flip = ((seed >> 16) as u8) | 1;

    let mut damaged = entry.data.clone();
    damaged[at] ^= flip;
    // The flip must be visible to the chunk CRC and invisible elsewhere.
    assert!(chunk_payload(&damaged, &table, victim).is_err(), "victim chunk must fail its CRC");
    assert!(
        chunk_payload(&damaged, &table, (victim + 1) % NCHUNKS).is_ok(),
        "neighbour chunks must stay intact"
    );

    let mut builder = PartitionBuilder::new();
    builder.push(&entry.path, entry.codec, &entry.stat, &damaged);
    (clean, builder.finish(), victim)
}

/// What rank 2 (the pure reader) observed in one run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    /// Non-covering windows that came back byte-exact.
    clean_ok: usize,
    /// Recovery counters after the non-covering phase — must be zero.
    crc_after_clean: u64,
    degraded_after_clean: u64,
    /// Covering reads (ranged + whole) that came back byte-exact.
    covered_ok: usize,
    /// Final recovery counters.
    crc_failures: u64,
    degraded_reads: u64,
    rpc_timeouts: u64,
    remote_bytes: u64,
}

/// Reads issued by rank 2. Phase A: one window strictly inside every
/// intact chunk. Phase B: a window straddling the victim's left boundary
/// (remote, must fail over), a window inside the victim (served from the
/// chunks cached by the failover), then whole-file reads (cold: replica
/// ring again; warm: cache).
fn reader_outcome(fs: &FsClient, data: &[u8], victim: usize) -> Outcome {
    let mut clean_ok = 0usize;
    for c in 0..NCHUNKS {
        if c == victim {
            continue;
        }
        let (a, b) = ((c * CHUNK + 3) as u64, ((c + 1) * CHUNK - 5) as u64);
        let got = fs.read_range(PATH, a, b).expect("non-covering range reads cleanly");
        assert_eq!(got, data[a as usize..b as usize], "chunk {c} window exact");
        clean_ok += 1;
    }
    let stats = &fs.state().stats;
    let crc_after_clean = stats.crc_failures.get();
    let degraded_after_clean = stats.degraded_reads.get();

    let mut covered_ok = 0usize;
    let span = ((victim * CHUNK - CHUNK / 3) as u64, (victim * CHUNK + CHUNK / 3) as u64);
    let inside = ((victim * CHUNK + CHUNK / 4) as u64, (victim * CHUNK + 3 * CHUNK / 4) as u64);
    for (a, b) in [span, inside] {
        let got = fs.read_range(PATH, a, b).expect("covering range recovers via replica");
        assert_eq!(got, data[a as usize..b as usize], "covering window [{a}, {b}) exact");
        covered_ok += 1;
    }
    for pass in 0..2 {
        let whole = fs.read_whole(PATH).expect("whole read recovers via replica");
        assert_eq!(whole, data, "whole file exact on pass {pass}");
        covered_ok += 1;
    }

    Outcome {
        clean_ok,
        crc_after_clean,
        degraded_after_clean,
        covered_ok,
        crc_failures: stats.crc_failures.get(),
        degraded_reads: stats.degraded_reads.get(),
        rpc_timeouts: stats.rpc_timeouts.get(),
        remote_bytes: stats.remote_bytes.get(),
    }
}

/// One full 3-rank run: rank 0 owns the (corrupted) partition, rank 1
/// holds the clean ring replica, rank 2 reads.
fn chaos_run(seed: u64) -> Outcome {
    let (clean, corrupted, victim) = partitions(seed);
    let data = body();
    let cluster = ClusterConfig {
        nodes: NODES,
        replication: 2, // replicas_of(0) = [0, 1]
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
    let loaded = Barrier::new(NODES);
    let results = FanStore::run(cluster, vec![clean], |fs| {
        if fs.rank() == 0 {
            fs.state().load_partition(&corrupted).expect("corrupted partition parses");
        }
        loaded.wait();
        (fs.rank() == 2).then(|| reader_outcome(fs, &data, victim))
    });
    results.into_iter().nth(2).flatten().expect("rank 2 outcome")
}

#[test]
fn corruption_fails_only_covering_ranges_and_recovers_via_replica() {
    let o = chaos_run(0x5EED_C4A0);
    // Every window over an intact chunk was served by the corrupted
    // owner without any recovery action: the damage is confined.
    assert_eq!(o.clean_ok, NCHUNKS - 1, "all non-covering windows read: {o:?}");
    assert_eq!(o.crc_after_clean, 0, "non-covering reads must not trip CRCs: {o:?}");
    assert_eq!(o.degraded_after_clean, 0, "non-covering reads must not degrade: {o:?}");
    // Covering reads all delivered exact bytes, via the replica ring.
    assert_eq!(o.covered_ok, 4, "{o:?}");
    assert!(o.crc_failures > 0, "the corrupted chunk must trip its at-rest CRC: {o:?}");
    assert_eq!(
        o.crc_failures, o.degraded_reads,
        "every CRC rejection recovers in exactly one ring hop: {o:?}"
    );
    assert_eq!(o.rpc_timeouts, 0, "no link faults in this plan: {o:?}");
}

#[test]
fn three_same_seed_runs_have_identical_degraded_counters() {
    let a = chaos_run(0xC0FFEE);
    let b = chaos_run(0xC0FFEE);
    let c = chaos_run(0xC0FFEE);
    assert_eq!(a, b, "same seed, same corruption site, same recoveries");
    assert_eq!(b, c, "same seed, same corruption site, same recoveries");
    assert!(a.crc_failures > 0, "the schedule must bite: {a:?}");

    // A different seed moves the victim chunk; the structure (and hence
    // the counter totals) stays the same, the byte traffic shifts.
    let d = chaos_run(0xD15EA5E);
    assert_eq!(d.crc_failures, a.crc_failures, "same read plan, different victim: {d:?}");
}
