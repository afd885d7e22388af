//! One remote-read path (DESIGN.md §6 "Read protocol"), pinned from the
//! outside: the same traffic for `read_whole` and a one-entry `read_many`
//! (a GET is a GET_MANY batch of one), the same recovery counters for
//! whole, range, tier and batch reads under the same faults (one ladder,
//! walked once, then the read-through copy), one GET_MANY per ladder round
//! for a batch with a dead owner, and one message for a 32-file batch
//! where single reads send 32.

use std::sync::Barrier;
use std::time::Duration;

use fanstore_repro::mpi::FaultPlan;
use fanstore_repro::store::client::{FailoverConfig, FsClient};
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::pack::{
    decode_container, parse_chunk_table, parse_partition, PartitionBuilder,
};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::FsError;

const CHUNK: usize = 4096;

fn ranged_body() -> Vec<u8> {
    (0..CHUNK * 4).map(|j| ((j / 7) as u8).wrapping_mul(29).wrapping_add(j as u8 & 3)).collect()
}

fn tiered_body() -> Vec<u8> {
    (0..2048).flat_map(|i| ((i as f32) * 0.37).sin().to_le_bytes()).collect()
}

#[test]
fn a_get_is_a_batch_of_one() {
    // Two cold files on rank 1 with equal path lengths and identical
    // contents. Rank 0 reads one through `read_whole` and the other
    // through a one-entry `read_many`: same wire format, so the same
    // messages, the same bytes each way and the same bytes served.
    let body = b"one wire codec ".repeat(200);
    let files = ["g/p0.bin", "g/p1.bin", "g/q0.bin", "g/q1.bin"].map(|p| (p.into(), body.clone()));
    let packed = prepare(files.into(), &PrepConfig { partitions: 2, ..Default::default() });
    let fabric = |fs: &FsClient| {
        let m = &fs.state().metrics;
        ["fabric.msgs_sent", "fabric.bytes_sent", "fabric.bytes_received"].map(|g| m.gauge(g).get())
    };
    // Rank 1 only serves; the barrier lets it sample its daemon's counter
    // between rank 0's two reads. Nothing between two waits can panic, so
    // a failure surfaces in the asserts below, not as a hang.
    let phase = Barrier::new(2);
    let cluster = ClusterConfig { nodes: 2, ..Default::default() };
    let results = FanStore::run(cluster, packed.partitions, |fs| {
        let served = || fs.state().metrics.counter("daemon.get.bytes").get();
        if fs.rank() == 1 {
            phase.wait();
            let after_whole = served();
            phase.wait();
            phase.wait();
            return (None, [[after_whole, served(), 0]; 3]);
        }
        let f0 = fabric(fs);
        let whole = fs.read_whole("g/p1.bin");
        let f1 = fabric(fs);
        phase.wait();
        phase.wait();
        let many = fs.read_many(&["g/q1.bin".to_string()]).remove(0);
        let f2 = fabric(fs);
        phase.wait();
        (Some((whole, many)), [f0, f1, f2])
    });
    let (reads, f) = &results[0];
    let (whole, many) = reads.as_ref().expect("rank 0 read");
    assert_eq!(whole.as_ref().unwrap(), &body);
    assert_eq!(many.as_ref().unwrap(), &body);
    let delta = |a: [u64; 3], b: [u64; 3]| [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    assert_eq!(delta(f[0], f[1]), delta(f[1], f[2]), "msgs_sent, bytes_sent, bytes_received");
    assert_eq!(delta(f[0], f[1])[0], 1, "one request message per read");
    let [after_whole, after_many, _] = results[1].1[0];
    assert!(after_whole > 0, "rank 1's daemon served the whole read");
    assert_eq!(after_whole, after_many - after_whole, "daemon.get.bytes");
}

#[test]
fn a_batch_of_32_is_one_message_where_single_reads_send_32() {
    // 64 files in rank 0's partition; rank 1 reads 32 of them in one
    // `read_many` and the other 32 one `read_whole` each, every one a
    // cold miss. The batch is one request message to the owner, the
    // single reads one each: per-message latency is paid 32x less.
    let name = |set: &str, i: usize| format!("b/{set}{i:02}.bin");
    let files = ["many", "whole"]
        .into_iter()
        .flat_map(|set| {
            (0..32).map(move |i| (name(set, i), format!("sample {set} {i} ").repeat(40)))
        })
        .map(|(path, body)| (path, body.into_bytes()))
        .collect();
    let packed = prepare(files, &PrepConfig { partitions: 1, ..Default::default() });
    let cluster = ClusterConfig { nodes: 2, ..Default::default() };
    let sent = FanStore::run(cluster, packed.partitions, |fs| {
        if fs.rank() == 0 {
            return [0; 2];
        }
        let msgs = || fs.state().metrics.gauge("fabric.msgs_sent").get();
        let before = msgs();
        let paths: Vec<String> = (0..32).map(|i| name("many", i)).collect();
        assert!(fs.read_many(&paths).iter().all(Result::is_ok));
        let after_many = msgs();
        for i in 0..32 {
            fs.read_whole(&name("whole", i)).expect("whole read");
        }
        [after_many - before, msgs() - after_many]
    });
    assert_eq!(sent[1], [1, 32], "fabric.msgs_sent for one read_many, then 32 read_whole");
}

/// The read under test. Whole, range and batch reads target a
/// range-chunked object, the tier read a progressive one — both carry
/// per-chunk at-rest CRCs, so one flipped stored byte is detectable by all
/// of them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Read {
    Whole,
    Range,
    Tier,
    /// A one-entry `read_many`.
    Many,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    /// The owner's links are dead from the first message.
    KillOwner,
    /// The owner's stored copy has one flipped byte in the chunk every
    /// read covers; the ring replica's copy is clean.
    CorruptOwner,
    /// Owner and replica are both dead; the retry budget is the given
    /// number of rounds after the first.
    ExhaustedBudget(u32),
    /// Owner and replica are both dead; the read-through copy is not.
    ReadThrough,
}

/// What the reading rank saw: how the read ended (`Ok` = exact bytes)
/// and `[rpc_timeouts, crc_failures, degraded_reads, retry_exhausted,
/// remote_opens, fabric.msgs_sent]`.
type Outcome = (Result<(), &'static str>, [u64; 6]);

/// One 3-rank run: rank 0 owns both objects, rank 1 is its ring replica,
/// rank 2 reads.
fn ladder_run(read: Read, scenario: Scenario) -> Outcome {
    ladder_counts(read, scenario).0
}

/// [`ladder_run`] plus the reading rank's `[read_through_reads,
/// fabric.rpc.retries]`. A retry round that sends is the one place the
/// ladder sleeps its backoff, so 0 retries means no backoff sleep.
fn ladder_counts(read: Read, scenario: Scenario) -> (Outcome, [u64; 2]) {
    // The clean partition, and a copy whose first stored chunk of each
    // object has one flipped byte.
    let (mut clean, mut damaged) = (PartitionBuilder::new(), PartitionBuilder::new());
    let mut tier0 = Vec::new();
    for (path, data, cfg) in [
        ("ld/ranged.bin", ranged_body(), PrepConfig { chunk_size: CHUNK, ..Default::default() }),
        ("ld/model.f32", tiered_body(), PrepConfig { progressive_tiers: 4, ..Default::default() }),
    ] {
        let part = prepare(vec![(path.to_string(), data)], &cfg).partitions.remove(0);
        let entry = parse_partition(&part).expect("partition parses").remove(0);
        clean.push(&entry.path, entry.codec, &entry.stat, &entry.data);
        let size = entry.stat.size as usize;
        decode_container(&entry.data, size, 0, &mut tier0).expect("tier 0 decodes");
        let mut bad = entry.data.clone();
        let first = parse_chunk_table(&bad).expect("chunked entry").payload_offset(0);
        bad[first + 5] ^= 0x21;
        damaged.push(&entry.path, entry.codec, &entry.stat, &bad);
    }
    let damaged = damaged.finish();
    let budget = match scenario {
        Scenario::ExhaustedBudget(budget) => Some(budget),
        _ => None,
    };
    let cluster = ClusterConfig {
        nodes: 3,
        replication: 2,
        fault_plan: match scenario {
            Scenario::KillOwner => Some(FaultPlan::new(7).kill(0, 0)),
            Scenario::ExhaustedBudget(_) | Scenario::ReadThrough => {
                Some(FaultPlan::new(7).kill(0, 0).kill(1, 0))
            }
            _ => None,
        },
        failover: FailoverConfig {
            rpc_timeout: Duration::from_millis(200),
            attempts_per_replica: if budget.is_some() { 2 } else { 1 },
            retry_budget: budget.unwrap_or(8),
            backoff_base: Duration::from_micros(100),
            backoff_max: Duration::from_millis(1),
            ..Default::default()
        },
        read_through: scenario == Scenario::ReadThrough,
        ..Default::default()
    };
    let loaded = Barrier::new(3);
    let outcomes = FanStore::run(cluster, vec![clean.finish()], |fs| {
        if fs.rank() == 0 && scenario == Scenario::CorruptOwner {
            // Overlay the owner's copy; the replica keeps the clean one
            // it received over the ring at startup.
            fs.state().load_partition(&damaged).expect("damaged partition parses");
        }
        loaded.wait();
        if fs.rank() != 2 {
            return None;
        }
        let (got, expect) = match read {
            Read::Whole => (fs.read_whole("ld/ranged.bin"), ranged_body()),
            Read::Range => (
                fs.read_range("ld/ranged.bin", 100, (CHUNK + 100) as u64),
                ranged_body()[100..CHUNK + 100].to_vec(),
            ),
            Read::Tier => (fs.read_whole_tier("ld/model.f32", 0), tier0.clone()),
            Read::Many => (fs.read_many(&["ld/ranged.bin".to_string()]).remove(0), ranged_body()),
        };
        let result = match got {
            Ok(bytes) if bytes == expect => Ok(()),
            Ok(_) => Err("wrong bytes"),
            Err(FsError::Timeout(_)) => Err("Timeout"),
            Err(_) => Err("other"),
        };
        let s = &fs.state().stats;
        let sent = fs.state().metrics.gauge("fabric.msgs_sent");
        let c = [&s.rpc_timeouts, &s.crc_failures, &s.degraded_reads, &s.retry_exhausted];
        let counts =
            [c[0].get(), c[1].get(), c[2].get(), c[3].get(), s.remote_opens.get(), sent.get()];
        let retries = fs.state().metrics.counter("fabric.rpc.retries").get();
        Some(((result, counts), [s.read_through_reads.get(), retries]))
    });
    outcomes.into_iter().nth(2).flatten().expect("rank 2 outcome")
}

#[test]
fn whole_range_and_tier_reads_share_one_ladder() {
    for read in [Read::Whole, Read::Range, Read::Tier] {
        // One hop to the ring replica, exact bytes, one degraded read —
        // whether the owner never answered or answered with a payload
        // that failed its at-rest CRC inside the attempt.
        let got = ladder_run(read, Scenario::KillOwner);
        assert_eq!(got, (Ok(()), [1, 0, 1, 0, 1, 2]), "{read:?}: kill owner");
        // A whole entry's damaged chunk decodes and fails its at-rest check
        // inside the attempt, so the owner's answer counts as a remote
        // open; a PARTIAL frame is sealed from the chunk table's CRCs, so
        // the same damage fails the frame check before it is opened.
        let opens = if read == Read::Whole { 2 } else { 1 };
        let got = ladder_run(read, Scenario::CorruptOwner);
        assert_eq!(got, (Ok(()), [0, 1, 1, 0, opens, 2]), "{read:?}: corrupt owner copy");
        // Budget 1 = one retry: two attempts at the dead owner, then the
        // walk stops before ever reaching the (also dead) replica. Every
        // read kind walks the ladder once.
        let (got, [_, retries]) = ladder_counts(read, Scenario::ExhaustedBudget(1));
        assert_eq!(got, (Err("Timeout"), [2, 0, 0, 1, 0, 2]), "{read:?}: exhausted budget");
        assert_eq!(retries, 1, "{read:?}: exhausted budget");
        // Budget 0 = the first round only: one attempt at the dead owner,
        // the entry counted as exhausted, and no retry round, so no
        // backoff sleep.
        let (got, [_, retries]) = ladder_counts(read, Scenario::ExhaustedBudget(0));
        assert_eq!(got, (Err("Timeout"), [1, 0, 0, 1, 0, 1]), "{read:?}: budget 0");
        assert_eq!(retries, 0, "{read:?}: budget 0");
        // Both copies dead: one walk over them, then the read-through copy
        // answers — planned like any stored object, so a range or tier
        // read gets exactly its bytes — as one degraded read.
        let (got, [read_through, _]) = ladder_counts(read, Scenario::ReadThrough);
        assert_eq!(got, (Ok(()), [2, 0, 1, 0, 0, 2]), "{read:?}: read-through");
        assert_eq!(read_through, 1, "{read:?}: read-through");
    }
}

#[test]
fn a_batch_of_one_reads_like_a_single_read() {
    // A one-entry `read_many` walks the one ladder: the same counters and
    // messages as `read_whole` under every fault, at-rest chunk damage
    // under a valid frame included, since a batch decodes each entry
    // inside its round.
    for scenario in [
        Scenario::KillOwner,
        Scenario::CorruptOwner,
        Scenario::ExhaustedBudget(1),
        Scenario::ExhaustedBudget(0),
        Scenario::ReadThrough,
    ] {
        let whole = ladder_counts(Read::Whole, scenario);
        assert_eq!(ladder_counts(Read::Many, scenario), whole, "{scenario:?}");
    }
}

#[test]
fn a_dead_owner_costs_a_batch_one_get_many_per_round() {
    // 32 files in one partition on rank 0, ring-replicated to rank 1; rank 0
    // is dead from the first message. Rank 2's batch asks the owner once,
    // times out once, and the next round fetches all 32 from the replica in
    // one GET_MANY.
    const FILES: usize = 32;
    let body = |i: usize| format!("file {i} on a dead owner ").repeat(40).into_bytes();
    let files: Vec<(String, Vec<u8>)> =
        (0..FILES).map(|i| (format!("do/f{i:02}.bin"), body(i))).collect();
    let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
    let packed = prepare(files, &PrepConfig { partitions: 1, ..Default::default() });
    let cluster = ClusterConfig {
        nodes: 3,
        replication: 2,
        fault_plan: Some(FaultPlan::new(7).kill(0, 0)),
        failover: FailoverConfig {
            rpc_timeout: Duration::from_millis(200),
            attempts_per_replica: 1,
            backoff_base: Duration::from_micros(100),
            backoff_max: Duration::from_millis(1),
            ..Default::default()
        },
        ..Default::default()
    };
    let outcomes = FanStore::run(cluster, packed.partitions, |fs| {
        if fs.rank() != 2 {
            return None;
        }
        let got = fs.read_many(&paths);
        let s = &fs.state().stats;
        let m = &fs.state().metrics;
        let counts = [
            m.gauge("fabric.msgs_sent").get(),
            s.rpc_timeouts.get(),
            s.remote_opens.get(),
            s.degraded_reads.get(),
            m.counter("client.get_many.fallbacks").get(),
        ];
        Some((got, counts))
    });
    let (got, counts) = outcomes.into_iter().nth(2).flatten().expect("rank 2 outcome");
    for (i, entry) in got.into_iter().enumerate() {
        assert_eq!(entry.expect("the replica answers"), body(i), "file {i}");
    }
    // [msgs_sent, rpc_timeouts, remote_opens, degraded_reads, fallbacks]
    assert_eq!(counts, [2, 1, 32, 32, 32]);
}

#[test]
fn a_byte_flipped_in_the_owners_memory_after_load_is_caught_by_the_reader() {
    // The owner seals whole-entry frames with the payload CRC it took at
    // load; it does not hash the payload again per request. A byte that
    // changes in its memory afterwards therefore reaches the reader under
    // a CRC it no longer matches: the reader's own verification rejects
    // the frame and the ladder moves to the ring replica. (A daemon that
    // re-hashed per request would have sealed the damaged bytes into a
    // valid frame, and the reader would have handed out wrong data, or
    // failed in the decoder with no replica tried.)
    let body: Vec<u8> = b"resident in the owner's memory ".repeat(300);
    for batched in [false, true] {
        let files = vec![("mem/obj.bin".to_string(), body.clone())];
        let packed = prepare(files, &PrepConfig::default());
        let cluster = ClusterConfig {
            nodes: 3,
            replication: 2,
            failover: FailoverConfig {
                rpc_timeout: Duration::from_millis(200),
                attempts_per_replica: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let loaded = Barrier::new(3);
        let outcomes = FanStore::run(cluster, packed.partitions, |fs| {
            if fs.rank() == 0 {
                let mut local = fs.state().local.write();
                let obj = local.get_mut("mem/obj.bin").expect("rank 0 owns the object");
                let mut flipped = (*obj.data).clone();
                flipped[40] ^= 0x10;
                obj.data = std::sync::Arc::new(flipped);
            }
            loaded.wait();
            if fs.rank() != 2 {
                return None;
            }
            let got = if batched {
                fs.read_many(&["mem/obj.bin".to_string()]).remove(0)
            } else {
                fs.read_whole("mem/obj.bin")
            };
            let s = &fs.state().stats;
            let counters =
                [&s.rpc_timeouts, &s.crc_failures, &s.degraded_reads, &s.retry_exhausted];
            Some((got, counters.map(|c| c.get())))
        });
        let (got, counters) = outcomes.into_iter().nth(2).flatten().expect("rank 2 outcome");
        assert_eq!(got.expect("the replica's copy is intact"), body, "batched: {batched}");
        // A batch entry walks the same ladder as a single read: the owner's
        // frame is rejected once, and the next round asks the replica.
        assert_eq!(counters, [0, 1, 1, 0], "batched: {batched}: one degraded read");
    }
}
