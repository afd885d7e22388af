//! Crash-point matrix for the durable write path: kill the "daemon"
//! anywhere — mid-append, between WAL append and memtable flush, inside
//! a segment write, inside a manifest publish, during the post-publish
//! log trim — and recovery must yield the newest acknowledged state.
//!
//! The kill is a [`CrashMedia`] power cut at a deterministic mutation
//! byte: the in-flight append lands torn, whole-object writes (segments,
//! manifests) land atomically or not at all, and every later sync fails
//! so nothing past the cut can be acknowledged. A scripted seeded
//! workload runs to the cut, recording which writes were acknowledged
//! (the store returned `Ok`); then the store reopens on the surviving
//! medium and three invariants hold:
//!
//! 1. **Acknowledged writes are readable** — every key's newest
//!    acknowledged version comes back byte-exact.
//! 2. **Recovery is a prefix** — the recovered state equals the scripted
//!    state replayed up to the recovered sequence, which is at least the
//!    last acknowledged one. No holes, no reordering, no torn records.
//!    (An unacknowledged record may survive only as part of that prefix
//!    — fsync is a durability lower bound, exactly like a real disk.)
//! 3. **Determinism** — same seed, same cut ⇒ byte-identical recovered
//!    state *and* byte-identical bytes on the medium, across runs.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use fanstore_repro::compress::{CodecFamily, CodecId};
use fanstore_repro::store::ckpt::{CheckpointStore, CkptConfig, Recovery};
use fanstore_repro::store::client::FsClient;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::metrics::MetricsRegistry;
use fanstore_repro::store::node::decompress_object_into;
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::wal::{CrashMedia, Lookup, RamMedia, WalConfig, WalMedia, WalStore};
use fanstore_repro::store::FsError;

const SEED: u64 = 0x0A17_C4A5;

/// The scripted operations: every op appends exactly one WAL record, so
/// op `i` carries sequence `i + 1` and "recovered prefix of length k"
/// means "ops 0..k applied".
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Put { key: String, value: Vec<u8> },
    Unlink { key: String },
}

/// Seeded workload over a small key universe: puts, overwrites and
/// unlinks, sized so the memtable budget forces several flushes and the
/// segment threshold forces at least one compaction.
fn script(seed: u64, ops: usize) -> Vec<Op> {
    script_over(seed, ops, 12)
}

/// [`script`] over the first `keys` names of the universe. Many keys for
/// few ops grow the live set, so that a merged segment ends up larger
/// than the flushes above it and a later merge takes a shorter run.
fn script_over(seed: u64, ops: usize, keys: usize) -> Vec<Op> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let keys: Vec<String> = (0..keys).map(|i| format!("out/obj-{i:02}.bin")).collect();
    (0..ops)
        .map(|i| {
            let key = keys[rng.gen_range(0..keys.len())].clone();
            if rng.gen_ratio(1, 5) && i > 4 {
                Op::Unlink { key }
            } else {
                let len = rng.gen_range(16..400usize);
                let fill = rng.gen::<u8>();
                // Compressible-ish but position-dependent so versions
                // are distinguishable byte-for-byte.
                let value = (0..len).map(|j| fill.wrapping_add((j / 7) as u8)).collect::<Vec<u8>>();
                Op::Put { key, value }
            }
        })
        .collect()
}

fn crash_cfg() -> WalConfig {
    WalConfig {
        memtable_budget: 1200,   // several flushes over ~90 ops
        commit_every: 1,         // Ok return == acknowledged durable
        compact_min_segments: 3, // compactions happen under the gun
        sync_cost: Duration::ZERO,
        ..WalConfig::default()
    }
}

/// Run the scripted workload against a store on `media`. Returns how
/// many leading ops were acknowledged (every op past the first failure
/// keeps failing: the medium is dead).
fn run_script(store: &WalStore, ops: &[Op]) -> usize {
    let mut acked = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let result = match op {
            Op::Put { key, value } => store.put(key, value.clone()),
            Op::Unlink { key } => store.unlink(key),
        };
        if result.is_ok() {
            assert_eq!(acked, i, "an op after a failed one must not be acknowledged");
            acked += 1;
        }
    }
    acked
}

/// The reference *live* state after applying the first `k` ops: only
/// keys whose newest version is a put. An unlinked key is simply absent
/// — whether the store reports it as a tombstone or (post-compaction,
/// once the tombstone itself is dropped) as a miss is an implementation
/// detail both meaning "no such file".
fn state_after(ops: &[Op], k: usize) -> BTreeMap<String, Vec<u8>> {
    let mut state = BTreeMap::new();
    for op in &ops[..k] {
        match op {
            Op::Put { key, value } => {
                state.insert(key.clone(), value.clone());
            }
            Op::Unlink { key } => {
                state.remove(key);
            }
        }
    }
    state
}

/// Read back every key of the universe from a recovered store; a
/// tombstone and a miss are both "absent".
fn recovered_state(store: &WalStore, ops: &[Op]) -> BTreeMap<String, Vec<u8>> {
    let mut keys: Vec<&String> = ops
        .iter()
        .map(|op| match op {
            Op::Put { key, .. } | Op::Unlink { key } => key,
        })
        .collect();
    keys.sort();
    keys.dedup();
    let mut state = BTreeMap::new();
    for key in keys {
        // A hit is handed out as stored; decode it as a reader does.
        if let Lookup::Hit(codec, raw_len, stored) = store.get(key).expect("recovered store reads")
        {
            let mut value = Vec::new();
            decompress_object_into(codec, &stored, raw_len, key, &mut value).expect("decodes");
            state.insert(key.clone(), value);
        }
    }
    state
}

/// One full crash run: workload against a cut medium, then recovery on
/// the surviving bytes. Returns (acked ops, recovered seq, recovered
/// state, surviving media bytes).
#[allow(clippy::type_complexity)]
fn crash_run(
    ops: &[Op],
    cut_bytes: u64,
) -> (usize, u64, BTreeMap<String, Vec<u8>>, BTreeMap<String, Vec<u8>>) {
    let disk = RamMedia::new(Duration::ZERO);
    let crash = CrashMedia::new(disk.clone(), cut_bytes);
    let (store, replay) =
        WalStore::open(crash, crash_cfg(), &MetricsRegistry::new()).expect("open on empty medium");
    assert_eq!(replay.records, 0);
    let acked = run_script(&store, ops);
    drop(store); // the process dies; only the medium survives
    let (recovered, replay) =
        WalStore::open(disk.clone() as Arc<dyn WalMedia>, crash_cfg(), &MetricsRegistry::new())
            .expect("recovery must open whatever survived the cut");
    let state = recovered_state(&recovered, ops);
    let media: BTreeMap<String, Vec<u8>> =
        disk.list().into_iter().filter_map(|n| disk.read(&n).map(|b| (n, (*b).clone()))).collect();
    (acked, replay.durable_seq, state, media)
}

#[test]
fn kill_anywhere_recovers_newest_acknowledged_state() {
    // The original 90 ops, then 90 over a wider universe: the tail grows
    // the live set until a merge takes a shorter run.
    const FIRST: usize = 90;
    let mut ops = script(SEED, FIRST);
    ops.extend(script_over(SEED ^ 0x0715_50E5, 90, 96));
    // Measure the workload's total mutation bytes with an uncuttable
    // medium, then sweep cuts across the whole range.
    let (acked, seq, full_state, _) = crash_run(&ops, u64::MAX);
    assert_eq!(acked, ops.len(), "no cut: everything acknowledged");
    assert_eq!(seq, ops.len() as u64);
    assert_eq!(full_state, state_after(&ops, ops.len()));

    let disk = RamMedia::new(Duration::ZERO);
    let probe = CrashMedia::new(disk, u64::MAX / 2);
    let (store, _) = WalStore::open(probe.clone(), crash_cfg(), &MetricsRegistry::new()).unwrap();
    let written = || u64::MAX / 2 - probe.remaining();
    // Mutation bytes after the first `FIRST` ops, and the byte range of
    // every op whose merge took a shorter run: one that left an older
    // segment published beside its output.
    let mut first = 0;
    let mut shorter_runs = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let (merges, from) = (store.metrics().compact_runs.get(), written());
        assert_eq!(run_script(&store, std::slice::from_ref(op)), 1);
        if store.metrics().compact_runs.get() != merges && store.status().segments.len() >= 2 {
            shorter_runs.push(from..written());
        }
        if i + 1 == FIRST {
            first = written();
        }
    }
    let total = written();
    assert!(first > 2000, "workload must actually mutate the medium ({first} bytes)");

    // ~60 cut points spread over every phase of the first ops' life, the
    // same spacing on through the tail, plus the degenerate edges.
    let step = (first / 57).max(1);
    let mut cuts: Vec<u64> = (0..total).step_by(step as usize).collect();
    cuts.extend([0, 1, first - 1, first, total - 1, total]);
    assert!(
        shorter_runs.iter().any(|run| cuts.iter().any(|cut| run.contains(cut))),
        "no cut lands in a merge of a shorter run: {shorter_runs:?}"
    );
    for cut in cuts {
        let ops = ops.clone();
        let (acked, seq, state, _) = crash_run(&ops, cut);
        assert!(
            seq >= acked as u64,
            "cut {cut}: recovered seq {seq} loses acknowledged op {acked}"
        );
        assert!(
            seq <= ops.len() as u64,
            "cut {cut}: recovered seq {seq} exceeds the {} scripted ops",
            ops.len()
        );
        // Prefix consistency: the recovered state is exactly the script
        // replayed to the recovered sequence — which covers invariant 1
        // (acked ⊆ prefix) and invariant 2 (nothing torn, no holes).
        assert_eq!(
            state,
            state_after(&ops, seq as usize),
            "cut {cut}: recovered state is not the length-{seq} prefix"
        );
    }
}

#[test]
fn same_seed_same_cut_is_byte_identical_across_runs() {
    let ops = script(SEED, 90);
    // A mid-flight cut chosen to land inside the interesting region
    // (after several flushes, before the workload ends).
    let (_, _, s0, m0) = crash_run(&ops, 9_001);
    for run in 1..3 {
        let (_, _, s, m) = crash_run(&ops, 9_001);
        assert_eq!(s, s0, "run {run}: recovered state diverged");
        assert_eq!(m, m0, "run {run}: surviving media bytes diverged");
    }
}

#[test]
fn negative_lookups_do_zero_segment_reads() {
    let registry = MetricsRegistry::new();
    let media = RamMedia::new(Duration::ZERO);
    let cfg = WalConfig { bloom_fp: 0.0001, ..crash_cfg() };
    let (store, _) = WalStore::open(media, cfg, &registry).unwrap();
    let ops = script(SEED ^ 0xB100_F11E, 60);
    run_script(&store, &ops);
    store.flush().unwrap();
    let reads_before = store.metrics().segment_reads.get();
    for i in 0..200 {
        assert!(
            matches!(store.get(&format!("never/written-{i}")).unwrap(), Lookup::Miss),
            "key {i} was never written"
        );
    }
    assert_eq!(
        store.metrics().segment_reads.get(),
        reads_before,
        "a negative lookup must never touch segment data"
    );
    assert!(
        store.metrics().bloom_negative.get() >= 200,
        "every probe should be answered by bloom filters"
    );
}

/// The names in directory `dir`, as `readdir` lists them.
fn readdir(fs: &FsClient, dir: &str) -> Vec<String> {
    let mut stream = fs.opendir(dir).expect("the directory lists");
    std::iter::from_fn(|| stream.next_entry().map(str::to_string)).collect()
}

/// The checkpoint generation each rank puts in the first life.
fn ckpt_payload(rank: usize) -> Vec<u8> {
    (0..20_000u32).map(|i| (i % 251) as u8 ^ (i / 4096) as u8 ^ rank as u8).collect()
}

/// Daemon-restart wiring through the cluster runtime: run one cluster
/// with a WAL on a shared medium, write output files and a checkpoint
/// generation, tear the cluster down, start a fresh one on the same medium.
/// The write store is the WAL in both lives, and the startup allgather
/// names every live value it recovered, so each rank's outputs read the
/// same way before and after the restart: batched (resolved in the local
/// pass, with no fallback), tier, whole and range reads return the
/// acknowledged bytes, `stat` gives their size and `readdir` lists them,
/// each path stays write-once, and the checkpoint generation recovers. One
/// output is flushed before the cut, so the second life reads it from a
/// segment, compressed; an unlinked path stays out of every answer.
#[test]
fn cluster_restart_replays_wal_into_fresh_daemons() {
    let files: Vec<(String, Vec<u8>)> =
        (0..4).map(|i| (format!("in/f{i}.bin"), vec![i as u8; 512])).collect();
    let packed = prepare(files, &PrepConfig { partitions: 2, ..Default::default() });
    let media: Vec<Arc<RamMedia>> = (0..2).map(|_| RamMedia::new(Duration::ZERO)).collect();
    let wal_cfg = WalConfig { sync_cost: Duration::ZERO, ..WalConfig::default() };

    let cluster = |m: &Vec<Arc<RamMedia>>| ClusterConfig {
        nodes: 2,
        wal: Some(wal_cfg.clone()),
        wal_media: Some(m.clone()),
        ..Default::default()
    };
    // Every read kind of `path`, which must agree with each other and with
    // `stat` and `readdir`; then the path must still refuse a second write.
    let read_every_way = |fs: &FsClient, path: &str| {
        let many = fs.read_many(&[path.to_string()]).remove(0).expect("batched read");
        let fallbacks = fs.state().metrics.counter("client.get_many.fallbacks").get();
        assert_eq!(fallbacks, 0, "the path resolves in the local pass");
        let tier = fs.read_whole_tier(path, 0).expect("a tier read");
        let whole = fs.read_whole(path).expect("a whole read");
        assert_eq!((&many, &tier), (&whole, &whole), "every read kind returns the same bytes");
        assert_eq!(fs.stat(path).expect("stat").size, whole.len() as u64, "{path}: stat size");
        let (start, end) = (whole.len() / 3, whole.len() - 1);
        let range = fs.read_range(path, start as u64, end as u64).expect("a range read");
        assert_eq!(range, whole[start..end], "{path}: a range read is a slice of the file");
        let (dir, name) = path.rsplit_once('/').expect("a path in a directory");
        assert!(readdir(fs, dir).iter().any(|n| n == name), "{path}: readdir lists it");
        let again = fs.write_whole(path, b"a second write of an acknowledged path");
        assert!(matches!(again, Err(FsError::AlreadyExists(_))), "write-once holds: {again:?}");
        whole
    };
    // An unlinked path: no read, no stat, no listing.
    let gone = |fs: &FsClient, path: &str| {
        assert!(fs.read_whole(path).is_err(), "{path}: an unlinked file reads");
        assert!(matches!(fs.stat(path), Err(FsError::NotFound(_))), "{path}: stat finds it");
        let (dir, name) = path.rsplit_once('/').expect("a path in a directory");
        assert!(readdir(fs, dir).iter().all(|n| n != name), "{path}: readdir lists it");
    };
    let paths =
        |rank: usize| ["rank", "tail", "doomed"].map(|stem| format!("out/{stem}{rank}.bin"));

    // First life: per rank, one output flushed into a segment, one left in
    // the log, one unlinked (which must stay dead after the restart), and a
    // checkpoint generation, pushed to the peer and published last.
    let written = FanStore::run(cluster(&media), packed.partitions.clone(), |fs| {
        let [flushed, tail, doomed] = paths(fs.rank());
        let body = format!("durable payload from rank {} ", fs.rank()).repeat(30).into_bytes();
        fs.write_whole(&flushed, &body).expect("write");
        fs.state().wal.as_ref().expect("wal attached").flush().expect("flush");
        let tail_body = format!("the log's tail on rank {} ", fs.rank()).repeat(8).into_bytes();
        fs.write_whole(&tail, &tail_body).expect("write the tail");
        fs.write_whole(&doomed, b"to be unlinked").expect("write doomed");
        fs.unlink(&doomed).expect("unlink");
        let put = CheckpointStore::new(fs, CkptConfig::default()).put(1, &ckpt_payload(fs.rank()));
        assert_eq!(put.expect("a checkpoint generation").replicate_failures, 0);
        assert!(fs.state().stats.write_count.get() >= 3, "write counters registered");
        assert!(fs.state().stats.write_bytes.get() >= body.len() as u64);
        assert_eq!(read_every_way(fs, &flushed), body, "the first life reads what it wrote");
        assert_eq!(read_every_way(fs, &tail), tail_body);
        gone(fs, &doomed);
        (body, tail_body)
    });

    // Second life: fresh cluster, same media. Reads are served from the
    // replayed WAL, by every read kind, exactly as in the first life.
    let read_back = FanStore::run(cluster(&media), packed.partitions, |fs| {
        let [flushed, tail, doomed] = paths(fs.rank());
        let wal = fs.state().wal.as_ref().expect("wal attached");
        assert!(wal.durable_seq() >= 3, "replay recovered the previous life's records");
        let Lookup::Hit(codec, raw_len, stored) = wal.get(&flushed).unwrap() else {
            panic!("{flushed} is not in the write store");
        };
        assert_eq!(codec, wal_cfg.codec, "{flushed} sits in a segment, compressed");
        assert!(stored.len() < raw_len, "{} stored bytes for {raw_len}", stored.len());
        let bodies = (read_every_way(fs, &flushed), read_every_way(fs, &tail));
        gone(fs, &doomed);
        let recovered = CheckpointStore::new(fs, CkptConfig::default()).recover();
        let payload = ckpt_payload(fs.rank());
        let want = Recovery::Loaded { generation: 1, payload, skipped: Vec::new() };
        assert_eq!(recovered.expect("recover"), want, "the checkpoint survives the restart");
        bodies
    });
    assert_eq!(written, read_back, "recovered bytes must match what was acknowledged");
}

/// An output flushed into a WAL segment is served as stored, and its reader
/// decodes it through the node's one timed decode. On a 2-node cluster the
/// rank holding it adds exactly the file's length to
/// `client.decompress.bytes` and `codec.lz4fast.decode_bytes` on its first
/// read, and a peer's read moves the row's stored bytes — fewer than the
/// file's — over the fabric, then decodes them the same way.
#[test]
fn a_flushed_output_is_served_as_stored_and_decoded_by_its_reader() {
    let body = b"an output of several KiB that compresses well; ".repeat(100);
    let path = "out/flushed.bin";
    let flushed = Barrier::new(2);
    let cluster = ClusterConfig {
        nodes: 2,
        wal: Some(WalConfig { sync_cost: Duration::ZERO, ..WalConfig::default() }),
        ..Default::default()
    };
    let none = prepare(Vec::new(), &PrepConfig { partitions: 2, ..Default::default() });
    let got = FanStore::run(cluster, none.partitions, |fs| {
        let wal = fs.state().wal.as_ref().expect("wal attached");
        if fs.rank() == 0 {
            fs.write_whole(path, &body).expect("write");
            wal.flush().expect("flush");
        }
        flushed.wait();
        let stored_len = match wal.get(path).unwrap() {
            Lookup::Hit(codec, raw_len, stored) => {
                assert_eq!((codec, raw_len), (CodecId::new(CodecFamily::Lz4Fast, 1), body.len()));
                Some(stored.len())
            }
            _ => None,
        };
        assert_eq!(fs.stat(path).expect("stat").size, body.len() as u64);
        let names =
            ["client.decompress.bytes", "codec.lz4fast.decode_bytes", "client.remote.bytes"];
        let counts = || names.map(|name| fs.state().metrics.counter(name).get());
        let before = counts();
        assert_eq!(fs.read_whole(path).expect("read"), body);
        let after = counts();
        (stored_len, [0, 1, 2].map(|i| after[i] - before[i]))
    });
    let raw = body.len() as u64;
    let stored = got[0].0.expect("rank 0 holds the output") as u64;
    assert!(stored < raw, "{stored} stored bytes for {raw}");
    assert_eq!(got[0].1, [raw, raw, 0], "rank 0 decodes its own output once");
    assert_eq!(got[1].0, None, "rank 1 holds no copy");
    assert_eq!(got[1].1, [raw, raw, stored], "rank 1 fetches the stored bytes and decodes them");
}
