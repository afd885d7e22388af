//! Chaos test: a rank dies *mid-checkpoint* and the survivor recovers —
//! never from a torn generation.
//!
//! A seeded `FaultPlan` cuts rank 0's service links after a fixed number
//! of tagged PUT (replication) sends, so the kill lands between a
//! generation's segment push and its manifest push. The manifest is the
//! atomic publish point: without it the half-replicated generation is
//! *invisible* on the survivor, which must recover the previous
//! generation byte-identically (CRC-verified the whole way down).
//!
//! Without faults, a delta chain stores fewer bytes than the same chain
//! written full, and both recover byte-exact.

use std::time::Duration;

use fanstore_repro::mpi::FaultPlan;
use fanstore_repro::store::ckpt::{CheckpointStore, CkptConfig, Recovery};
use fanstore_repro::store::client::FailoverConfig;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::daemon::tags;
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::train::epoch::checkpoint_payload;

const NODES: usize = 2;

fn partitions() -> Vec<Vec<u8>> {
    let files = (0..4)
        .map(|i| (format!("d/f{i}.bin"), format!("input {i} ").repeat(50).into_bytes()))
        .collect();
    prepare(files, &PrepConfig { partitions: NODES, ..Default::default() }).partitions
}

fn ckpt_cfg() -> CkptConfig {
    CkptConfig {
        tag: "chaos".to_string(),
        chunk_size: 1024,
        chunks_per_segment: 8,
        full_every: 0,
        replicas: 1,
        keep_last: 0,
        ..CkptConfig::default()
    }
}

/// Evolving model state, byte-checkable per generation.
fn model(generation: u64) -> Vec<u8> {
    (0..4096usize)
        .map(|i| {
            let stable = (i * 131) as u8;
            if i.is_multiple_of(61) {
                stable.wrapping_add(generation as u8)
            } else {
                stable
            }
        })
        .collect()
}

fn chaos_cluster(put_sends_before_kill: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        fault_plan: Some(FaultPlan::new(0xC4A0_0FF1).kill_after_tag(
            0,
            tags::PUT,
            put_sends_before_kill,
        )),
        failover: FailoverConfig { rpc_timeout: Duration::from_millis(300), ..Default::default() },
        ..Default::default()
    }
}

/// Wait until the survivor's replica of `store`'s lineage shows at least
/// one published generation (replication is asynchronous w.r.t. this
/// rank's closure).
fn await_lineage(store: &CheckpointStore) {
    for _ in 0..4000 {
        if !store.generations().expect("local scan").is_empty() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("replicated lineage never appeared");
}

/// The headline chaos scenario: with a 4 KiB model split into 4 chunks
/// (one segment per generation), each checkpoint costs exactly 2 PUT
/// sends — segment, then manifest. Killing rank 0 after 3 PUT sends lets
/// generation 1 replicate fully and tears generation 2 exactly between
/// its segment push and its manifest push.
#[test]
fn mid_checkpoint_kill_never_exposes_a_torn_generation() {
    let results = FanStore::run(chaos_cluster(3), partitions(), |fs| {
        if fs.rank() == 0 {
            let store = CheckpointStore::new(fs, ckpt_cfg());
            let r1 = store.put(1, &model(1)).expect("gen 1");
            assert_eq!(r1.replicate_failures, 0, "kill has not fired yet");
            let r2 = store.put(2, &model(2)).expect("gen 2 still publishes locally");
            assert_eq!(
                r2.replicate_failures, 1,
                "the manifest push dies mid-checkpoint (segment already landed)"
            );
            // The victim's own copy of gen 2 is whole: local recovery
            // (e.g. the same node restarting) sees it.
            match CheckpointStore::new(fs, ckpt_cfg()).recover().expect("local recover") {
                Recovery::Loaded { generation, payload, .. } => {
                    assert_eq!(generation, 2);
                    assert_eq!(payload, model(2));
                }
                Recovery::Fresh => panic!("rank 0 wrote two generations"),
            }
            return 0u64;
        }
        // Rank 1, the survivor, recovers rank 0's lineage from its local
        // replica copies alone (rank 0 is unreachable).
        let store = CheckpointStore::for_rank(fs, ckpt_cfg(), 0);
        await_lineage(&store);
        match store.recover().expect("replica recover") {
            Recovery::Loaded { generation, payload, skipped } => {
                assert_eq!(
                    generation, 1,
                    "gen 2's manifest never arrived, so the half-replicated \
                     generation must be invisible — not loaded torn"
                );
                assert_eq!(payload, model(1), "byte-identical CRC-verified restore");
                assert!(skipped.is_empty(), "an unpublished generation is not even scanned");
                generation
            }
            Recovery::Fresh => panic!("gen 1 was fully replicated before the kill"),
        }
    });
    assert_eq!(results, vec![0, 1]);
}

/// Killing the very first PUT send leaves the survivor with *nothing* —
/// recovery must report a clean fresh start, not a partial generation.
#[test]
fn kill_before_any_replication_leaves_survivor_fresh() {
    let results = FanStore::run(chaos_cluster(0), partitions(), |fs| {
        if fs.rank() == 0 {
            let store = CheckpointStore::new(fs, ckpt_cfg());
            let r = store.put(1, &model(1)).expect("local publish still works");
            assert_eq!(r.replicate_failures, 2, "segment and manifest pushes both die");
            return true;
        }
        // Give replication a moment, then confirm nothing ever arrives:
        // a dropped segment without its manifest publishes nothing.
        std::thread::sleep(Duration::from_millis(50));
        let store = CheckpointStore::for_rank(fs, ckpt_cfg(), 0);
        matches!(store.recover().expect("scan"), Recovery::Fresh)
    });
    assert_eq!(results, vec![true, true]);
}

/// The same seed must produce the same outcome: fault decisions are a
/// pure function of the plan, so the chaos scenario is replayable.
#[test]
fn chaos_outcome_is_deterministic() {
    let run = || {
        FanStore::run(chaos_cluster(3), partitions(), |fs| {
            if fs.rank() == 0 {
                let store = CheckpointStore::new(fs, ckpt_cfg());
                let mut failures = 0;
                for g in 1..=3u64 {
                    failures += store.put(g, &model(g)).expect("put").replicate_failures;
                }
                return failures;
            }
            let store = CheckpointStore::for_rank(fs, ckpt_cfg(), 0);
            await_lineage(&store);
            match store.recover().expect("recover") {
                Recovery::Loaded { generation, .. } => generation as usize,
                Recovery::Fresh => usize::MAX,
            }
        })
    };
    let a = run();
    assert_eq!(a, run(), "seeded fault plan must replay identically");
    assert_eq!(a[1], 1, "survivor always lands on the last fully replicated generation");
}

/// Raw and stored bytes of a 3-generation chain of a 16 KiB sparse-drift
/// model, written by each rank of a clean 2-node cluster at `full_every`
/// and then recovered cold. Per rank: `(raw, stored)`.
fn chain_bytes(full_every: u64) -> Vec<(u64, u64)> {
    const GENERATIONS: u64 = 3;
    let cfg = || CkptConfig {
        tag: "chain".to_string(),
        full_every,
        replicas: 1,
        ..CkptConfig::default()
    };
    let cluster = ClusterConfig { nodes: NODES, ..Default::default() };
    FanStore::run(cluster, partitions(), |fs| {
        let model = |g: u64| checkpoint_payload(fs.rank(), g, 16 * 1024);
        let store = CheckpointStore::new(fs, cfg());
        let (mut raw, mut stored) = (0, 0);
        for g in 1..=GENERATIONS {
            let r = store.put(g, &model(g)).expect("put");
            raw += r.raw_bytes;
            stored += r.stored_bytes;
        }
        match CheckpointStore::new(fs, cfg()).recover().expect("recover") {
            Recovery::Loaded { generation, payload, .. } => {
                assert_eq!(generation, GENERATIONS);
                assert_eq!(payload, model(GENERATIONS), "full_every {full_every}");
            }
            Recovery::Fresh => panic!("the chain was written"),
        }
        (raw, stored)
    })
}

#[test]
fn delta_chain_stores_fewer_bytes_than_full() {
    // full_every 0 never forces a full generation after the first; 1
    // writes every generation full.
    let delta = chain_bytes(0);
    let full = chain_bytes(1);
    for (rank, (d, f)) in delta.iter().zip(&full).enumerate() {
        assert_eq!(d.0, f.0, "rank {rank}: the same payloads either way");
        assert!(d.1 < f.1, "rank {rank}: delta stored {} B, full {} B", d.1, f.1);
    }
}
