//! Steady-state allocation behaviour of the decode hot path, observed
//! through the scratch-pool counters: after a warmup epoch, batched reads
//! that recycle their buffers must take every decode buffer from the pool
//! (`misses` flat, `hits` growing) — zero per-entry decode allocations.

use fanstore_repro::store::cache::CacheConfig;
use fanstore_repro::store::client::FsClient;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};

fn dataset(n: usize, file_bytes: usize) -> Vec<(String, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let payload: Vec<u8> =
                (0..file_bytes).map(|j| ((i * 31 + j * 7) % 251) as u8).collect();
            (format!("ps/f{i:03}.bin"), payload)
        })
        .collect()
}

#[test]
fn read_many_steady_state_needs_no_decode_allocations() {
    let n = 16;
    let paths: Vec<String> = (0..n).map(|i| format!("ps/f{i:03}.bin")).collect();
    let packed = prepare(dataset(n, 8 * 1024), &PrepConfig { partitions: 2, ..Default::default() });
    let results = FanStore::run(
        ClusterConfig {
            nodes: 2,
            // Figure-4 eager policy: nothing stays cached, so every epoch
            // decodes every file — the worst case for allocation churn.
            cache: CacheConfig { capacity: 1 << 30, release_on_zero: true, ..Default::default() },
            ..Default::default()
        },
        packed.partitions,
        |fs| {
            let epoch = |fs: &FsClient| {
                for r in fs.read_many(&paths) {
                    // Hand each consumed buffer back to the pool — the
                    // contract that makes the loop allocation-free.
                    fs.recycle(r.unwrap());
                }
            };
            epoch(fs); // warmup: populates the pool (all misses)
            let warm = fs.state().pool.stats();
            for _ in 0..3 {
                epoch(fs);
            }
            let steady = fs.state().pool.stats();
            (warm, steady)
        },
    );
    for (warm, steady) in results {
        assert!(warm.misses > 0, "warmup epoch must allocate");
        assert_eq!(
            steady.misses, warm.misses,
            "steady-state read_many must take every decode buffer from the pool"
        );
        assert!(
            steady.hits >= warm.hits + 3 * n as u64 / 2,
            "decodes after warmup must be pool hits: warm {warm:?} steady {steady:?}"
        );
    }
}

#[test]
fn posix_read_loop_recycles_through_eager_cache() {
    // The open/read/close surface with the eager-release cache: on close
    // the cache holds the last reference and recycles the decode buffer
    // itself — no cooperation from the reader needed.
    let n = 12;
    let packed = prepare(dataset(n, 16 * 1024), &PrepConfig::default());
    let results = FanStore::run(
        ClusterConfig {
            cache: CacheConfig { capacity: 1 << 30, release_on_zero: true, ..Default::default() },
            ..Default::default()
        },
        packed.partitions,
        |fs| {
            let epoch = |fs: &FsClient| {
                for i in 0..n {
                    let path = format!("ps/f{i:03}.bin");
                    let fd = fs.open(&path).unwrap();
                    let mut buf = vec![0u8; 64 * 1024];
                    while fs.read(fd, &mut buf).unwrap() > 0 {}
                    fs.close(fd).unwrap();
                }
            };
            epoch(fs);
            let warm = fs.state().pool.stats();
            for _ in 0..3 {
                epoch(fs);
            }
            let steady = fs.state().pool.stats();
            (warm, steady)
        },
    );
    for (warm, steady) in results {
        assert_eq!(
            steady.misses, warm.misses,
            "fd-based epochs must reuse pooled buffers via cache eviction"
        );
        assert_eq!(
            steady.returns - warm.returns,
            steady.hits - warm.hits,
            "every recycled buffer came back through the eviction hook"
        );
    }
}

#[test]
fn retained_cache_plus_recycled_copies_stay_allocation_free() {
    // With a retentive cache, epoch 2+ are cache hits (no decode at all);
    // the per-read copies are pool-sourced and recycled, so misses stay
    // flat here too.
    let n = 10;
    let paths: Vec<String> = (0..n).map(|i| format!("ps/f{i:03}.bin")).collect();
    let packed = prepare(dataset(n, 4 * 1024), &PrepConfig::default());
    let results = FanStore::run(
        ClusterConfig {
            cache: CacheConfig { capacity: 1 << 30, release_on_zero: false, ..Default::default() },
            ..Default::default()
        },
        packed.partitions,
        |fs| {
            for r in fs.read_many(&paths) {
                fs.recycle(r.unwrap());
            }
            let warm = fs.state().pool.stats();
            for _ in 0..3 {
                for r in fs.read_many(&paths) {
                    fs.recycle(r.unwrap());
                }
            }
            let steady = fs.state().pool.stats();
            (warm, steady)
        },
    );
    for (warm, steady) in results {
        assert_eq!(steady.misses, warm.misses, "cache-hit epochs must not allocate copies");
    }
}

#[test]
fn decoding_a_file_of_exactly_class_size_never_regrows_the_pooled_buffer() {
    // A class holds `2^k` bytes plus the decoders' own slack constant, so
    // a file whose length is exactly `2^k` gets the `2^k` class and the
    // decoder's `expected_len + WILD_SLACK` reservation fits it exactly.
    // A decoder reserving more than the pool pads for would show here as
    // a buffer that came back with a different capacity.
    use fanstore_repro::compress::copy::WILD_SLACK;
    use fanstore_repro::compress::{compress_to_vec, registry::create, CodecFamily, CodecId};
    use fanstore_repro::store::node::NodeState;

    let state = NodeState::new(0, 1, CacheConfig::default());
    for len in [1usize << 10, 1 << 13, 1 << 17] {
        let data = dataset(1, len).remove(0).1;
        for (family, level) in [
            (CodecFamily::Lz4Hc, 9),
            (CodecFamily::Lz4Fast, 1),
            (CodecFamily::Lzf, 2),
            (CodecFamily::Lzsse8, 2),
            (CodecFamily::ZstdLite, 6),
            (CodecFamily::Store, 0),
        ] {
            let id = CodecId::new(family, level);
            let stored = compress_to_vec(create(id).unwrap().as_ref(), &data);
            for pass in ["fresh", "recycled"] {
                let out = state.decompress_timed(id, &stored, len, "ps/exact.bin").unwrap();
                assert_eq!(out, data, "{id} {len} B {pass}");
                let class = len + WILD_SLACK;
                assert_eq!(out.capacity(), class, "{id} {len} B {pass}: buffer regrown");
                state.pool.put(out);
            }
        }
    }
    let stats = state.pool.stats();
    assert_eq!((stats.hits, stats.misses), (33, 3), "one allocation per size, then recycling");
}
