//! Property tests pinning the byte-range read path (DESIGN.md §13):
//! for arbitrary file contents, chunk sizes, codecs and ranges,
//! `read_range(path, a, b)` must be byte-identical to
//! `read_whole(path)[a..b]` from every rank; malformed ranges must fail
//! with the typed `FsError::BadRange` (never a panic); a partial read
//! followed by a full read must leave the cache entry identical to a cold
//! full read; and for every container kind and every read kind, the rank
//! that answers from its own bytes and the rank that asks a peer return
//! the same thing (DESIGN.md §6: one lookup, one planner, one path). A
//! 5 % window moves a small fraction of a whole read's bytes, counted by
//! the reader's `client.remote.bytes`, and a repeated window moves none.

use std::mem::{discriminant, Discriminant};
use std::sync::atomic::Ordering;
use std::sync::Barrier;

use fanstore_repro::compress::{CodecFamily, CodecId};
use fanstore_repro::store::client::FsClient;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::pack::{parse_partition, PartitionBuilder, TIER_FULL};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::FsError;
use proptest::prelude::*;

/// Codecs a chunked container may carry (fast levels only).
fn codec(pick: u8) -> CodecId {
    match pick % 4 {
        0 => CodecId::new(CodecFamily::Store, 0),
        1 => CodecId::new(CodecFamily::Lz4Fast, 1),
        2 => CodecId::new(CodecFamily::Lzf, 2),
        _ => CodecId::new(CodecFamily::Lz4Hc, 6),
    }
}

/// File bodies with different compressibility profiles.
fn body_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary bytes.
        proptest::collection::vec(any::<u8>(), 64..8192),
        // Tiled block (compressible).
        (proptest::collection::vec(any::<u8>(), 1..48), 8usize..400).prop_map(|(block, reps)| {
            block.iter().copied().cycle().take(block.len() * reps).collect()
        }),
        // Position-dependent ramp.
        (any::<u8>(), 64usize..8192)
            .prop_map(|(seed, n)| (0..n).map(|j| seed.wrapping_add((j / 5) as u8)).collect()),
    ]
}

/// The container dimension: packed whole, range-chunked, progressive, and
/// written by rank 0 at run time.
const KINDS: [&str; 4] = ["pr/plain.bin", "pr/chunked.bin", "pr/tiered.f32", "pr/written.bin"];

/// The read dimension, in the order [`read_all`] runs it.
const READS: [&str; 5] =
    ["read_whole", "read_range", "read_whole_tier(0)", "read_whole_tier(TIER_FULL)", "read_many"];

/// A read's outcome with an error reduced to its variant.
type Got = Result<Vec<u8>, Discriminant<FsError>>;

/// Every read kind of `path` over `[a, b)`, each from a cold cache.
fn read_all(fs: &FsClient, path: &str, a: u64, b: u64) -> [Got; 5] {
    let cold = |got: Result<Vec<u8>, FsError>| {
        fs.state().cache.purge(path);
        got.map_err(|e| discriminant(&e))
    };
    // `stat` first, as `enumerate` would: a rank the write's metadata was
    // not forwarded to learns it from the metadata owner.
    fs.stat(path).expect("stat");
    [
        cold(fs.read_whole(path)),
        cold(fs.read_range(path, a, b)),
        cold(fs.read_whole_tier(path, 0)),
        cold(fs.read_whole_tier(path, TIER_FULL)),
        cold(fs.read_many(&[path.to_string()]).remove(0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Local answer == remote answer: rank 0 holds every file (three in
    /// its partition, one it wrote), rank 1 reads all of them from rank
    /// 0. For each container × read kind both ranks return the same
    /// bytes, or the same error variant; the lossless reads return the
    /// file.
    #[test]
    fn local_answer_equals_remote_answer(
        data in body_strategy(),
        chunk_pow in 6u32..12,
        pick in any::<u8>(),
        a_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let n = data.len();
        let a = ((n - 1) as f64 * a_frac) as u64;
        let b = (a + 1 + ((n as u64 - a - 1) as f64 * len_frac) as u64).min(n as u64);
        let cfgs = [
            PrepConfig { codec: codec(pick), ..Default::default() },
            PrepConfig { chunk_size: 1 << chunk_pow, codec: codec(pick), ..Default::default() },
            PrepConfig { progressive_tiers: 4, ..Default::default() },
        ];
        let mut part = PartitionBuilder::new();
        for (path, cfg) in KINDS.iter().zip(cfgs) {
            let packed = prepare(vec![(path.to_string(), data.clone())], &cfg).partitions;
            for e in parse_partition(&packed[0]).expect("partition parses") {
                part.push(&e.path, e.codec, &e.stat, &e.data);
            }
        }
        let written = Barrier::new(2);
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            vec![part.finish()],
            |fs| {
                if fs.rank() == 0 {
                    fs.write_whole(KINDS[3], &data).expect("write");
                }
                written.wait();
                KINDS.map(|path| read_all(fs, path, a, b))
            },
        );
        for (kind, (local, remote)) in results[0].iter().zip(&results[1]).enumerate() {
            for (read, (l, r)) in local.iter().zip(remote).enumerate() {
                prop_assert_eq!(l, r, "{} × {}: local vs remote", KINDS[kind], READS[read]);
            }
            let exact = [(0, &data[..]), (1, &data[a as usize..b as usize]), (3, &data[..]), (4, &data[..])];
            for (read, want) in exact {
                prop_assert_eq!(local[read].as_deref(), Ok(want), "{} × {}", KINDS[kind], READS[read]);
            }
        }
    }

    /// `read_range` equals the slice of the whole file — local on the
    /// owning rank, remote (v2 GET_MANY) on the other — and a
    /// partial-then-full sequence leaves the cache holding exactly the
    /// cold-full-read bytes.
    #[test]
    fn range_reads_match_whole_file_slices(
        data in body_strategy(),
        chunk_pow in 6u32..12,          // 64 B .. 2 KiB chunks
        pick in any::<u8>(),
        a_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let chunk = 1usize << chunk_pow;
        let n = data.len();
        let a = ((n - 1) as f64 * a_frac) as u64;
        let b = (a + 1 + ((n as u64 - a - 1) as f64 * len_frac) as u64).min(n as u64);
        let packed = prepare(
            vec![("pr/file.bin".to_string(), data.clone())],
            &PrepConfig { partitions: 1, chunk_size: chunk, codec: codec(pick), ..Default::default() },
        );
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            move |fs| {
                // Ranged read first (cold cache), on both ranks: rank 0
                // exercises the local chunk path, rank 1 the remote v2
                // protocol.
                let ranged = fs.read_range("pr/file.bin", a, b).expect("range read");
                // Then the full read: the Partial cache entry upgrades to
                // Full and must equal a cold full read.
                let whole = fs.read_whole("pr/file.bin").expect("whole read");
                (ranged, whole)
            },
        );
        for (rank, (ranged, whole)) in results.into_iter().enumerate() {
            prop_assert_eq!(&whole, &data, "rank {} whole read exact", rank);
            prop_assert_eq!(
                &ranged[..],
                &data[a as usize..b as usize],
                "rank {} range [{}, {})",
                rank, a, b
            );
        }
    }

    /// Out-of-bounds and empty ranges are typed errors, never panics,
    /// and never corrupt later reads.
    #[test]
    fn bad_ranges_error_typed(
        data in body_strategy(),
        chunk_pow in 6u32..12,
        over in 1u64..1000,
    ) {
        let n = data.len() as u64;
        let packed = prepare(
            vec![("pr/file.bin".to_string(), data.clone())],
            &PrepConfig { partitions: 1, chunk_size: 1usize << chunk_pow, ..Default::default() },
        );
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            move |fs| {
                // end beyond the file.
                let past_end = fs.read_range("pr/file.bin", 0, n + over);
                // empty window.
                let empty = fs.read_range("pr/file.bin", n / 2, n / 2);
                // inverted window.
                let inverted = fs.read_range("pr/file.bin", n, 0);
                // start at or past the end.
                let at_end = fs.read_range("pr/file.bin", n, n + over);
                // A good read afterwards still works.
                let good = fs.read_range("pr/file.bin", 0, 1).expect("good read after errors");
                (
                    matches!(past_end, Err(FsError::BadRange(_))),
                    matches!(empty, Err(FsError::BadRange(_))),
                    matches!(inverted, Err(FsError::BadRange(_))),
                    matches!(at_end, Err(FsError::BadRange(_))),
                    good,
                )
            },
        );
        for (rank, (past_end, empty, inverted, at_end, good)) in results.into_iter().enumerate() {
            prop_assert!(past_end, "rank {rank}: end past EOF must be BadRange");
            prop_assert!(empty, "rank {rank}: empty range must be BadRange");
            prop_assert!(inverted, "rank {rank}: inverted range must be BadRange");
            prop_assert!(at_end, "rank {rank}: start at EOF must be BadRange");
            prop_assert_eq!(&good[..], &data[..1], "rank {} reads fine after errors", rank);
        }
    }
}

/// Files, raw bytes per file and chunk size of the window dataset.
const WINDOW_FILES: usize = 8;
const WINDOW_FILE_BYTES: usize = 256 * 1024;
const WINDOW_CHUNK: usize = 16 * 1024;

fn window_path(file: usize) -> String {
    format!("rr/f{file:03}.bin")
}

/// The window dataset, range-chunked in one partition, which rank 0 of
/// a two-node cluster holds.
fn window_partitions() -> Vec<Vec<u8>> {
    // Mildly compressible and position-dependent, so every chunk shrinks
    // and none to nothing.
    let dataset = (0..WINDOW_FILES)
        .map(|i| {
            let body = (0..WINDOW_FILE_BYTES)
                .map(|j| ((i * 31) as u8).wrapping_add((j / 7) as u8).wrapping_add(j as u8 & 3))
                .collect();
            (window_path(i), body)
        })
        .collect();
    let cfg = PrepConfig { partitions: 1, chunk_size: WINDOW_CHUNK, ..PrepConfig::default() };
    prepare(dataset, &cfg).partitions
}

/// Rank 1's compressed fabric bytes for `pass` over the window dataset,
/// every file of which lives in rank 0's partition, plus whatever `pass`
/// returns.
fn reader_pass<T: Send>(pass: impl Fn(&FsClient) -> T + Sync) -> (u64, T) {
    let cluster = ClusterConfig { nodes: 2, ..ClusterConfig::default() };
    let mut out = FanStore::run(cluster, window_partitions(), |fs| {
        let got = (fs.rank() == 1).then(|| pass(fs));
        (fs.state().metrics.counter("client.remote.bytes").get(), got)
    });
    let (bytes, got) = out.swap_remove(1);
    (bytes, got.expect("rank 1 ran the pass"))
}

#[test]
fn a_5_percent_window_moves_at_most_15_percent_of_the_bytes() {
    // A staggered 5 % window of every file.
    let window = |file: usize| {
        let len = WINDOW_FILE_BYTES / 20;
        let start = file * 2_654_435_761 % (WINDOW_FILE_BYTES - len);
        (start as u64, (start + len) as u64)
    };
    let read_windows = |fs: &FsClient| {
        for i in 0..WINDOW_FILES {
            let (a, b) = window(i);
            let got = fs.read_range(&window_path(i), a, b).expect("range read");
            assert_eq!(got.len() as u64, b - a);
        }
    };
    let (ranged, (first, hits)) = reader_pass(|fs| {
        read_windows(fs);
        let bytes = || fs.state().metrics.counter("client.remote.bytes").get();
        let hits = || fs.state().cache.stats().hits.load(Ordering::Relaxed);
        let (first, hits_before) = (bytes(), hits());
        read_windows(fs);
        (first, hits() - hits_before)
    });
    assert_eq!(ranged, first, "a repeated window is served from partial cache residency");
    assert!(hits >= WINDOW_FILES as u64, "{hits} cache hits for {WINDOW_FILES} repeated windows");

    let (whole, ()) = reader_pass(|fs| {
        for i in 0..WINDOW_FILES {
            assert_eq!(
                fs.read_whole(&window_path(i)).expect("whole read").len(),
                WINDOW_FILE_BYTES
            );
        }
    });
    // Chunk granularity rounds a window up to its covering chunks, so the
    // ratio exceeds 5 %; near 1 would mean ranges fell back to whole reads.
    assert!(
        ranged as f64 <= 0.15 * whole as f64,
        "5 % windows moved {ranged} B against {whole} B for whole files"
    );
}

/// Decoded bytes are counted work. On a cold cache a range read decodes
/// each covering chunk only as far as the window's end, so
/// `client.decompress.bytes` grows by exactly `end` minus the first
/// covering chunk's offset, on the rank that holds the chunks and on the
/// rank that fetches them alike; the same window again is served from the
/// cache's chunk prefixes and decodes nothing.
#[test]
fn a_window_decodes_from_its_first_chunk_to_its_end_and_a_repeat_decodes_nothing() {
    // Seeded windows, plus a whole file and its last byte.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |below: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as usize % below
    };
    let mut windows =
        vec![(0, 0, WINDOW_FILE_BYTES), (1, WINDOW_FILE_BYTES - 1, WINDOW_FILE_BYTES)];
    for _ in 0..24 {
        let (file, len) = (next(WINDOW_FILES), 1 + next(WINDOW_FILE_BYTES / 10));
        let start = next(WINDOW_FILE_BYTES - len + 1);
        windows.push((file, start, start + len));
    }
    let want: u64 =
        windows.iter().map(|&(_, a, b)| (b - a / WINDOW_CHUNK * WINDOW_CHUNK) as u64).sum();
    let cluster = ClusterConfig { nodes: 2, ..ClusterConfig::default() };
    let counts = FanStore::run(cluster, window_partitions(), |fs| {
        let decoded = || fs.state().metrics.counter("client.decompress.bytes").get();
        let read = |&(file, a, b): &(usize, usize, usize)| {
            let got = fs.read_range(&window_path(file), a as u64, b as u64).expect("range read");
            assert_eq!(got.len(), b - a);
        };
        let before = decoded();
        for w in &windows {
            fs.state().cache.purge(&window_path(w.0));
            read(w);
        }
        let cold = decoded() - before;
        for w in &windows {
            fs.state().cache.purge(&window_path(w.0));
            read(w);
            let warm = decoded();
            read(w);
            assert_eq!(decoded(), warm, "window {w:?} repeated decoded again");
        }
        cold
    });
    assert_eq!(
        counts,
        [want, want],
        "bytes decoded on [holder, fetcher] for {} windows",
        windows.len()
    );
}

/// A tier read's decode is the node's one timed decode, as every other
/// read's is: `client.decompress.bytes` and the `chunked` codec's
/// `decode_bytes` grow by exactly the approximation's length, at every
/// tier, on the rank that holds the tiers and on the rank that fetches
/// them.
#[test]
fn a_tier_read_counts_exactly_the_bytes_it_returns() {
    let path = "pr/tiers.f32";
    let data: Vec<u8> =
        (0..2048u32).flat_map(|i| ((i as f32) * 0.01).sin().to_le_bytes()).collect();
    let cfg = PrepConfig { partitions: 1, progressive_tiers: 4, ..PrepConfig::default() };
    let partitions = prepare(vec![(path.to_string(), data)], &cfg).partitions;
    let cluster = ClusterConfig { nodes: 2, ..ClusterConfig::default() };
    let counts = FanStore::run(cluster, partitions, |fs| {
        let m = &fs.state().metrics;
        let counted = || {
            let names = ["client.decompress.bytes", "codec.chunked.decode_bytes"];
            names.map(|name| m.counter(name).get())
        };
        (0..4u8)
            .map(|tier| {
                let before = counted();
                let got = fs.read_whole_tier(path, tier).expect("tier read");
                let after = counted();
                (got.len() as u64, [after[0] - before[0], after[1] - before[1]])
            })
            .collect::<Vec<_>>()
    });
    for (rank, reads) in counts.iter().enumerate() {
        for (tier, (len, added)) in reads.iter().enumerate() {
            assert_eq!(*added, [*len, *len], "rank {rank}, tier {tier}: counted for {len} B");
        }
    }
}
