//! The WAL store against a model, and against a medium that counts.
//!
//! * **Model**: seeded scripts of put / overwrite / unlink / flush /
//!   compact / reopen run against a `BTreeMap`; every `get` (its stored
//!   bytes decoded as a reader decodes them), every `contains` and the
//!   `live` listing agree with it, before and after each reopen, and a
//!   last reopen checks the medium.
//! * **What a lookup costs**: [`Counting`] wraps the medium and records
//!   every read and write. `contains` and tombstones read nothing; a `get`
//!   reads exactly the value's stored bytes; a compaction reads each input
//!   once and writes one segment and one manifest.
//! * **What compaction may not do**: change a stored byte (its output is
//!   what decoding and rebuilding the live set gives) or carry a damaged
//!   input forward under a fresh CRC, which the next `open` refuses.
//! * **Codecs mix**: a medium whose segments were flushed under another
//!   codec than the store now writes with keeps reading, and compaction
//!   carries each row under the codec id it was stored with.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use fanstore_repro::compress::{CodecFamily, CodecId};
use fanstore_repro::store::metrics::MetricsRegistry;
use fanstore_repro::store::node::decompress_object_into;
use fanstore_repro::store::wal::segment::{self, SegRow};
use fanstore_repro::store::wal::{Lookup, MemEntry, RamMedia, WalConfig, WalMedia, WalStore};
use fanstore_repro::store::FsError;

fn open(media: Arc<dyn WalMedia>, cfg: &WalConfig) -> WalStore {
    WalStore::open(media, cfg.clone(), &MetricsRegistry::new()).expect("open").0
}

/// Stored bytes decoded as a reader decodes them, held to `raw_len`.
fn decode(codec: CodecId, raw_len: usize, stored: &[u8], path: &str) -> Vec<u8> {
    let mut out = Vec::new();
    decompress_object_into(codec, stored, raw_len, path, &mut out).expect("decode");
    out
}

/// `key`'s value, decoded from what `get` hands out as stored.
fn get(store: &WalStore, key: &str) -> Option<Vec<u8>> {
    let Lookup::Hit(codec, raw_len, stored) = store.get(key).expect("get") else { return None };
    Some(decode(codec, raw_len, &stored, key))
}

/// Reopen the store's medium: `open` checks every published segment
/// against the manifest that names it.
fn check_medium(media: Arc<dyn WalMedia>, cfg: &WalConfig) -> Result<(), FsError> {
    WalStore::open(media, cfg.clone(), &MetricsRegistry::new()).map(|_| ())
}

/// Compressible, incompressible and empty values, distinguishable by
/// content.
fn value(rng: &mut ChaCha8Rng) -> Vec<u8> {
    let len = rng.gen_range(1..600usize);
    match rng.gen_range(0..8u32) {
        0 => Vec::new(),
        1 | 2 => (0..len).map(|_| rng.gen::<u8>()).collect(),
        _ => {
            let fill = rng.gen::<u8>();
            (0..len).map(|j| fill.wrapping_add((j / 9) as u8)).collect()
        }
    }
}

fn check(store: &WalStore, model: &BTreeMap<String, Vec<u8>>, keys: &[String], when: &str) {
    for key in keys {
        let got = get(store, key);
        assert_eq!(got.as_ref(), model.get(key), "{when}: get {key}");
        assert_eq!(store.contains(key), model.contains_key(key), "{when}: contains {key}");
    }
    assert!(matches!(store.get("never/written").unwrap(), Lookup::Miss), "{when}");
    assert!(!store.contains("never/written"), "{when}");
    let mut live = store.live();
    live.sort();
    let want: Vec<(String, usize)> = model.iter().map(|(k, v)| (k.clone(), v.len())).collect();
    assert_eq!(live, want, "{when}: the live listing");
}

#[test]
fn seeded_scripts_agree_with_a_btreemap_model() {
    let keys: Vec<String> = (0..24).map(|i| format!("out/k{i:02}.bin")).collect();
    for seed in 0..6u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x00DE_1A7A ^ seed);
        let cfg = WalConfig {
            memtable_budget: 2048,
            compact_min_segments: if seed % 2 == 0 { 3 } else { 0 },
            sync_cost: Duration::ZERO,
            ..WalConfig::default()
        };
        let media = RamMedia::new(Duration::ZERO);
        let mut store = open(media.clone(), &cfg);
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut reopens = 0;
        for step in 0..400 {
            let key = &keys[rng.gen_range(0..keys.len())];
            match rng.gen_range(0..100u32) {
                0..=54 => {
                    let v = value(&mut rng);
                    store.put(key, v.clone()).unwrap();
                    model.insert(key.clone(), v);
                }
                55..=69 => {
                    store.unlink(key).unwrap();
                    model.remove(key);
                }
                70..=74 => {
                    let v = value(&mut rng);
                    store.put(key, v.clone()).unwrap();
                    model.insert(key.clone(), v);
                }
                75..=79 => {
                    // Draws a value it does not write, so that every other
                    // step of the seed stays as it was.
                    let _ = value(&mut rng);
                    store.unlink(key).unwrap();
                    model.remove(key);
                }
                80..=89 => {
                    store.flush().unwrap();
                }
                90..=94 => {
                    store.compact().unwrap();
                }
                _ => {
                    check(&store, &model, &keys, &format!("seed {seed} step {step} before reopen"));
                    drop(store);
                    store = open(media.clone(), &cfg);
                    reopens += 1;
                    check(&store, &model, &keys, &format!("seed {seed} step {step} after reopen"));
                }
            }
            check(&store, &model, std::slice::from_ref(key), &format!("seed {seed} step {step}"));
        }
        check(&store, &model, &keys, &format!("seed {seed} end"));
        assert!(reopens > 0 && store.metrics().segment_reads.get() > 0, "seed {seed} is too tame");
        check_medium(media, &cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// One recorded medium call: object name and bytes moved.
type Call = (String, usize);

/// A medium that records what crosses it.
#[derive(Default)]
struct Calls {
    whole_reads: Vec<Call>,
    range_reads: Vec<Call>,
    writes: Vec<Call>,
}

struct Counting {
    inner: Arc<RamMedia>,
    calls: Mutex<Calls>,
}

impl Counting {
    fn new() -> Arc<Self> {
        Arc::new(Counting { inner: RamMedia::new(Duration::ZERO), calls: Mutex::default() })
    }

    /// The calls since the last `take`.
    fn take(&self) -> Calls {
        std::mem::take(&mut self.calls.lock().unwrap())
    }
}

impl WalMedia for Counting {
    fn write(&self, name: &str, bytes: Vec<u8>) -> Result<(), FsError> {
        self.calls.lock().unwrap().writes.push((name.to_string(), bytes.len()));
        self.inner.write(name, bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), FsError> {
        self.inner.append(name, bytes)
    }

    fn sync(&self) -> Result<(), FsError> {
        self.inner.sync()
    }

    fn read(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        let out = self.inner.read(name);
        let len = out.as_ref().map_or(0, |b| b.len());
        self.calls.lock().unwrap().whole_reads.push((name.to_string(), len));
        out
    }

    fn read_range(&self, name: &str, offset: usize, len: usize) -> Option<Vec<u8>> {
        self.calls.lock().unwrap().range_reads.push((name.to_string(), len));
        self.inner.read_range(name, offset, len)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, name: &str) {
        self.inner.delete(name)
    }
}

fn manual_cfg() -> WalConfig {
    WalConfig {
        memtable_budget: usize::MAX,
        compact_min_segments: 0,
        sync_cost: Duration::ZERO,
        ..WalConfig::default()
    }
}

/// The index row of `key` in the published segment `name`.
fn row_of(media: &RamMedia, name: &str, key: &str) -> SegRow {
    let blob = media.read(name).expect("segment is on the medium");
    segment::index(&blob).unwrap().find(key).expect("key is in the segment").clone()
}

#[test]
fn lookups_read_one_value_or_nothing() {
    let media = Counting::new();
    let store = open(media.clone(), &manual_cfg());
    let compressible = b"sixteen KiB of checkpoint, near enough ".repeat(100);
    store.put("live/compressed", compressible.clone()).unwrap();
    store
        .put(
            "live/raw",
            (0..300u32).flat_map(|i| i.wrapping_mul(0x9E37_79B9).to_le_bytes()).collect(),
        )
        .unwrap();
    store.put("gone/unlinked", vec![3; 500]).unwrap();
    store.put("gone/superseded", vec![4; 500]).unwrap();
    store.put("gone/flushed-unlinked", vec![5; 500]).unwrap();
    store.unlink("gone/flushed-unlinked").unwrap();
    let first = store.flush().unwrap().expect("a segment");
    store.unlink("gone/unlinked").unwrap();
    store.put("gone/superseded", Vec::new()).unwrap();
    store.unlink("gone/superseded").unwrap();
    store.flush().unwrap().expect("a second segment");
    media.take();

    for key in ["live/compressed", "live/raw"] {
        assert!(store.contains(key));
    }
    for key in ["gone/unlinked", "gone/superseded", "gone/flushed-unlinked", "never/written"] {
        assert!(!store.contains(key), "{key}");
        assert!(get(&store, key).is_none(), "{key}");
    }
    let calls = media.take();
    assert!(calls.whole_reads.is_empty(), "whole-object reads: {:?}", calls.whole_reads);
    assert!(calls.range_reads.is_empty(), "range reads: {:?}", calls.range_reads);
    assert_eq!(store.metrics().segment_reads.get(), 0);

    for key in ["live/compressed", "live/raw"] {
        let row = row_of(&media.inner, &first, key);
        let got = get(&store, key).expect("live");
        assert_eq!(got.len(), row.raw_len);
        let calls = media.take();
        assert!(calls.whole_reads.is_empty(), "{key}: {:?}", calls.whole_reads);
        assert_eq!(calls.range_reads, vec![(first.clone(), row.stored_len)], "{key}");
    }
    assert!(row_of(&media.inner, &first, "live/compressed").stored_len < compressible.len());
    assert_eq!(&get(&store, "live/compressed").unwrap(), &compressible);
}

#[test]
fn compaction_reads_each_input_once_and_changes_no_stored_byte() {
    let media = Counting::new();
    let store = open(media.clone(), &manual_cfg());
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0A7);
    let mut inputs = Vec::new();
    for round in 0..3 {
        for i in 0..10 {
            if (i + round) % 3 != 0 {
                store.put(&format!("k{i}"), value(&mut rng)).unwrap();
            } else if round > 0 {
                store.unlink(&format!("k{i}")).unwrap();
            }
        }
        store.put(&format!("round{round}"), value(&mut rng)).unwrap();
        inputs.push((store.flush().unwrap().expect("a segment"), 0));
    }
    for (name, bytes) in &mut inputs {
        *bytes = media.inner.read(name).unwrap().len();
    }
    inputs.sort();
    media.take();

    let report = store.compact().unwrap();
    let mut calls = media.take();
    calls.whole_reads.sort();
    assert_eq!(calls.whole_reads, inputs, "each input blob is read once, whole");
    assert!(calls.range_reads.is_empty());
    let status = store.status();
    let out = &status.segments[0];
    assert_eq!(status.segments.len(), 1);
    assert_eq!(
        calls.writes,
        vec![
            (out.name.clone(), out.bytes as usize),
            ("wal/MANIFEST".to_string(), calls.writes[1].1)
        ],
        "one segment, then one manifest"
    );

    // Decode every carried value and build the segment again: same bytes.
    let blob = media.inner.read(&out.name).unwrap();
    let live: Vec<(String, MemEntry)> = segment::index(&blob)
        .unwrap()
        .rows
        .iter()
        .map(|row| {
            let part = row.carry(&blob).expect("the row indexes its segment");
            let value = Some(Arc::new(decode(row.codec, row.raw_len, &part.stored, &row.path)));
            (row.path.clone(), MemEntry { seq: row.seq, value })
        })
        .collect();
    let cfg = manual_cfg();
    assert_eq!(*blob, segment::build(&live, cfg.codec, cfg.bloom_fp).unwrap().blob);
    let raw: u64 = live.iter().map(|(_, e)| e.value.as_ref().unwrap().len() as u64).sum();
    assert_eq!(report.out_bytes, raw, "out_bytes stays raw value bytes");
    assert!(report.in_bytes > report.out_bytes && report.dropped_tombstones > 0);
}

/// Every index row of every published segment, newest segment first.
fn published_rows(store: &WalStore, media: &RamMedia) -> Vec<SegRow> {
    let names = store.status().segments.into_iter().map(|s| s.name);
    names.flat_map(|n| segment::index(&media.read(&n).expect("published")).unwrap().rows).collect()
}

#[test]
fn segments_flushed_under_another_codec_are_read_and_carried_as_they_are() {
    let hc = CodecId::new(CodecFamily::Lz4Hc, 6);
    let fast = manual_cfg().codec;
    assert_ne!(fast, hc, "the default flush codec is not the one this medium was written with");
    let keys: Vec<String> = (0..16).map(|i| format!("out/k{i:02}.bin")).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0x4D1C);
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let media = Counting::new();
    let mut put = |store: &WalStore, model: &mut BTreeMap<String, Vec<u8>>, keys: &[String]| {
        for key in keys {
            let v = value(&mut rng);
            store.put(key, v.clone()).unwrap();
            model.insert(key.clone(), v);
        }
    };

    // A life under lz4hc-6 leaves two segments behind.
    let store = open(media.clone(), &WalConfig { codec: hc, ..manual_cfg() });
    put(&store, &mut model, &keys[..12]);
    store.flush().unwrap().expect("a segment");
    put(&store, &mut model, &keys[8..14]);
    store.flush().unwrap().expect("a second segment");
    drop(store);

    // The next life writes under the default: overwrites, an unlink, new keys.
    let store = open(media.clone(), &manual_cfg());
    check(&store, &model, &keys, "reopened under another codec");
    put(&store, &mut model, &keys[4..6]);
    store.unlink(&keys[0]).unwrap();
    model.remove(&keys[0]);
    put(&store, &mut model, &keys[14..]);
    store.flush().unwrap().expect("a third segment");
    put(&store, &mut model, &keys[6..7]);
    store.flush().unwrap().expect("a fourth segment");
    check(&store, &model, &keys, "four segments, two codecs");

    // What each live key's newest version is stored as, before the merge.
    let mut stored_as: BTreeMap<String, (CodecId, u64)> = BTreeMap::new();
    for row in published_rows(&store, &media.inner) {
        stored_as.entry(row.path.clone()).or_insert((row.codec, row.seq));
    }
    let mut inputs: Vec<Call> =
        store.status().segments.iter().map(|s| (s.name.clone(), s.bytes as usize)).collect();
    inputs.sort();
    media.take();
    store.compact().unwrap();
    let mut calls = media.take();
    calls.whole_reads.sort();
    assert_eq!(calls.whole_reads, inputs, "each input blob is read once, whole");
    assert!(calls.range_reads.is_empty());

    let carried = published_rows(&store, &media.inner);
    assert_eq!(carried.len(), model.len(), "one row per live key");
    for row in &carried {
        assert_eq!((row.codec, row.seq), stored_as[&row.path], "{} keeps its codec id", row.path);
    }
    for codec in [hc, fast] {
        assert!(carried.iter().any(|r| r.codec == codec), "a row stored as {codec} survives");
    }
    check(&store, &model, &keys, "after the merge");
    drop(store);
    let store = open(media.clone(), &manual_cfg());
    check(&store, &model, &keys, "after the merge and a reopen");
    check_medium(media, &manual_cfg()).expect("the merged medium checks out");
}

#[test]
fn compaction_does_not_bless_at_rest_damage() {
    let media = RamMedia::new(Duration::ZERO);
    let store = open(media.clone(), &manual_cfg());
    store.put("a/old", b"first segment ".repeat(20)).unwrap();
    let damaged = store.flush().unwrap().unwrap();
    store.put("b/new", b"second segment ".repeat(20)).unwrap();
    store.flush().unwrap().unwrap();

    // One bit of one stored value rots on the medium.
    let at = row_of(&media, &damaged, "a/old").offset + 3;
    let mut rotten = (*media.read(&damaged).unwrap()).clone();
    rotten[at] ^= 0x04;
    media.write(&damaged, rotten).unwrap();
    let before: Vec<(String, Arc<Vec<u8>>)> =
        media.list().into_iter().map(|n| (n.clone(), media.read(&n).unwrap())).collect();

    assert!(matches!(store.compact(), Err(FsError::Corrupt(m)) if m.contains(&damaged)));
    let after: Vec<(String, Arc<Vec<u8>>)> =
        media.list().into_iter().map(|n| (n.clone(), media.read(&n).unwrap())).collect();
    assert_eq!(after, before, "a refused compaction leaves manifest and segments as they were");
    assert_eq!(store.status().segments.len(), 2);
    assert_eq!(&get(&store, "b/new").unwrap(), &b"second segment ".repeat(20));
    let reopened = check_medium(media, &manual_cfg());
    assert!(
        matches!(&reopened, Err(FsError::Corrupt(m)) if m.contains(&damaged)),
        "open names the damaged segment: {reopened:?}"
    );
}
