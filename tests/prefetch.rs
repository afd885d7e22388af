//! The prefetch pipeline (`train::prefetch`, the Figure 5(b) loader) over
//! a real cluster: every byte delivered once, the same bytes whatever the
//! coalescing width, decode buffers recycled, a failed file ending the
//! epoch instead of hanging it, and a batch entry damaged at rest failing
//! over to its ring replica as a single read does.

use std::collections::HashSet;
use std::sync::{mpsc, Barrier};
use std::time::Duration;

use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::pack::{parse_chunk_table, parse_partition, PartitionBuilder};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::train::prefetch::{prefetched_epoch, PrefetchConfig};

fn dataset(n: usize) -> Vec<(String, Vec<u8>)> {
    (0..n)
        .map(|i| (format!("p/f{i:03}.bin"), format!("payload {i} ").repeat(50).into_bytes()))
        .collect()
}

#[test]
fn prefetched_epoch_delivers_every_byte() {
    let files = dataset(20);
    let total_expected: u64 = files.iter().map(|(_, d)| d.len() as u64).sum();
    let packed = prepare(files.clone(), &PrepConfig { partitions: 2, ..Default::default() });
    let results =
        FanStore::run(ClusterConfig { nodes: 2, ..Default::default() }, packed.partitions, |fs| {
            let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
            let cfg = PrefetchConfig {
                io_threads: 3,
                queue_batches: 2,
                batch_size: 4,
                ..Default::default()
            };
            let mut batches = 0usize;
            let mut seen = HashSet::new();
            let total = prefetched_epoch(fs, &paths, &cfg, |batch| {
                batches += 1;
                for f in batch {
                    assert!(seen.insert(f.index), "file delivered twice");
                }
            })
            .unwrap();
            (total, batches, seen.len())
        });
    for (total, batches, distinct) in results {
        assert_eq!(total, total_expected);
        assert_eq!(batches, 5);
        assert_eq!(distinct, 20);
    }
}

#[test]
fn prefetched_matches_synchronous_content() {
    let files = dataset(9);
    let packed = prepare(files.clone(), &PrepConfig::default());
    FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
        let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
        let cfg =
            PrefetchConfig { io_threads: 2, queue_batches: 1, batch_size: 4, ..Default::default() };
        let mut collected: Vec<(usize, Vec<u8>)> = Vec::new();
        prefetched_epoch(fs, &paths, &cfg, |batch| {
            for f in batch {
                collected.push((f.index, f.data.clone()));
            }
        })
        .unwrap();
        collected.sort_by_key(|(i, _)| *i);
        for ((i, data), (_, expect)) in collected.iter().zip(&files) {
            assert_eq!(data, expect, "file {i}");
        }
    });
}

#[test]
fn rpc_batch_sizes_deliver_identical_content() {
    // The batched fetch stage must be a pure optimisation: any
    // coalescing width produces the same bytes in the same index
    // slots.
    let files = dataset(17);
    let packed = prepare(files.clone(), &PrepConfig { partitions: 4, ..Default::default() });
    let results =
        FanStore::run(ClusterConfig { nodes: 4, ..Default::default() }, packed.partitions, |fs| {
            let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
            let mut digests = Vec::new();
            for rpc_batch in [1usize, 8, 128] {
                let cfg = PrefetchConfig {
                    io_threads: 3,
                    queue_batches: 2,
                    batch_size: 5,
                    rpc_batch,
                    ..Default::default()
                };
                let mut collected: Vec<(usize, Vec<u8>)> = Vec::new();
                prefetched_epoch(fs, &paths, &cfg, |batch| {
                    for f in batch {
                        collected.push((f.index, f.data.clone()));
                    }
                })
                .unwrap();
                collected.sort_by_key(|(i, _)| *i);
                digests.push(collected);
            }
            assert_eq!(digests[0], digests[1]);
            assert_eq!(digests[1], digests[2]);
            digests[0].len()
        });
    for n in results {
        assert_eq!(n, 17);
    }
}

#[test]
fn pipeline_recycles_decode_buffers() {
    // After a warmup epoch the pipeline's workers must draw every scratch
    // buffer from the node pool: consumed batches are recycled by the
    // consumer loop, so pool misses stay flat across steady-state epochs.
    let files = dataset(24);
    let packed = prepare(files.clone(), &PrepConfig { partitions: 2, ..Default::default() });
    let results =
        FanStore::run(ClusterConfig { nodes: 2, ..Default::default() }, packed.partitions, |fs| {
            let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
            let cfg = PrefetchConfig {
                io_threads: 3,
                queue_batches: 2,
                batch_size: 6,
                ..Default::default()
            };
            prefetched_epoch(fs, &paths, &cfg, |_| {}).unwrap();
            // Seed the pool up to the pipeline's peak in-flight demand
            // (queue + workers + consumer batch < one buffer per file):
            // hold a decoded copy of every file at once, then hand them
            // all back. Epoch recycling alone parks only as many buffers
            // as the scheduler happened to have in flight, which an
            // unlucky steady-state schedule can exceed.
            let held: Vec<Vec<u8>> = paths.iter().map(|p| fs.read_whole(p).unwrap()).collect();
            for buf in held {
                fs.recycle(buf);
            }
            let warm = fs.state().pool.stats();
            for _ in 0..3 {
                prefetched_epoch(fs, &paths, &cfg, |_| {}).unwrap();
            }
            let steady = fs.state().pool.stats();
            (warm, steady)
        });
    for (warm, steady) in results {
        assert_eq!(
            steady.misses, warm.misses,
            "steady-state prefetch epochs must not allocate decode buffers"
        );
        assert!(steady.hits > warm.hits, "post-warmup epochs must reuse pooled buffers");
    }
}

#[test]
fn missing_file_propagates_error() {
    let packed = prepare(dataset(2), &PrepConfig::default());
    FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
        let paths = vec!["p/f000.bin".to_string(), "missing.bin".to_string()];
        let err = prefetched_epoch(fs, &paths, &PrefetchConfig::default(), |_| {});
        assert!(err.is_err());
    });
}

#[test]
fn empty_path_list_is_zero() {
    let packed = prepare(dataset(1), &PrepConfig::default());
    FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
        let total = prefetched_epoch(fs, &[], &PrefetchConfig::default(), |_| {
            panic!("no batches expected")
        })
        .unwrap();
        assert_eq!(total, 0);
    });
}

#[test]
fn partial_final_batch_delivered() {
    let files = dataset(7);
    let packed = prepare(files.clone(), &PrepConfig::default());
    FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
        let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
        let cfg =
            PrefetchConfig { io_threads: 2, queue_batches: 1, batch_size: 3, ..Default::default() };
        let mut sizes = Vec::new();
        prefetched_epoch(fs, &paths, &cfg, |batch| sizes.push(batch.len())).unwrap();
        assert_eq!(sizes, vec![3, 3, 1]);
    });
}

#[test]
fn a_failed_first_file_ends_the_epoch_instead_of_hanging() {
    // A missing file at index 0 of a 400-file epoch behind a one-batch
    // queue: the consumer returns its error while the workers still have
    // most of the epoch to hand over, so they must see the queue close
    // rather than block on it. The epoch runs on a helper thread behind a
    // watchdog, so a hang fails the test instead of stalling the suite.
    let files = dataset(400);
    let mut paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
    paths[0] = "p/missing.bin".to_string();
    let packed = prepare(files, &PrepConfig::default());
    let (done_tx, done) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let cluster = ClusterConfig { nodes: 1, ..Default::default() };
        let got = FanStore::run(cluster, packed.partitions, |fs| {
            let cfg = PrefetchConfig {
                io_threads: 1,
                queue_batches: 1,
                batch_size: 4,
                ..Default::default()
            };
            prefetched_epoch(fs, &paths, &cfg, |_| {}).is_err()
        });
        let _ = done_tx.send(got);
    });
    let failed = done.recv_timeout(Duration::from_secs(30)).expect("the epoch hung");
    helper.join().expect("the helper thread ends once it has answered");
    assert_eq!(failed, [true], "the missing file fails the epoch");
}

#[test]
fn an_owner_damaged_at_rest_fails_over_to_its_replica() {
    // 12 range-chunked files in one partition on rank 0, ring-replicated to
    // rank 1. Rank 0's copy of every other file has one flipped byte in its
    // first stored chunk, under a valid frame; rank 2 prefetches the epoch.
    // Each damaged entry fails its at-rest check inside its ladder round
    // and is read from the replica: every file byte-exact, one degraded
    // read per damaged file.
    const FILES: usize = 12;
    const CHUNK: usize = 1024;
    let files: Vec<(String, Vec<u8>)> = (0..FILES)
        .map(|i| {
            let body = (0..CHUNK * 3).map(|j| ((j / 5 + i) as u8).wrapping_mul(31)).collect();
            (format!("d/f{i:02}.bin"), body)
        })
        .collect();
    let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
    let cfg = PrepConfig { partitions: 1, chunk_size: CHUNK, ..Default::default() };
    let partition = prepare(files.clone(), &cfg).partitions.remove(0);
    let mut damaged = PartitionBuilder::new();
    let mut hit = 0u64;
    for (i, e) in parse_partition(&partition).expect("partition parses").into_iter().enumerate() {
        let mut data = e.data.clone();
        if i % 2 == 0 {
            let first = parse_chunk_table(&data).expect("chunked entry").payload_offset(0);
            data[first + 5] ^= 0x21;
            hit += 1;
        }
        damaged.push(&e.path, e.codec, &e.stat, &data);
    }
    let damaged = damaged.finish();
    let cluster = ClusterConfig { nodes: 3, replication: 2, ..Default::default() };
    let loaded = Barrier::new(3);
    let outcomes = FanStore::run(cluster, vec![partition], |fs| {
        if fs.rank() == 0 {
            // Overlay the owner's copy; the replica keeps the clean one it
            // received over the ring at startup.
            fs.state().load_partition(&damaged).expect("damaged partition parses");
        }
        loaded.wait();
        if fs.rank() != 2 {
            return None;
        }
        // The queue holds the whole epoch, so no worker ever waits on it:
        // what this checks is the failover, not an early return.
        let pcfg =
            PrefetchConfig { io_threads: 2, queue_batches: 3, batch_size: 4, ..Default::default() };
        let mut got = vec![None; FILES];
        let epoch = prefetched_epoch(fs, &paths, &pcfg, |batch| {
            for f in batch {
                got[f.index] = Some(f.data.clone());
            }
        });
        Some((epoch.map(drop), got, fs.state().stats.degraded_reads.get()))
    });
    let (epoch, got, degraded) = outcomes.into_iter().nth(2).flatten().expect("rank 2 outcome");
    assert!(epoch.is_ok(), "{epoch:?}");
    for ((path, body), got) in files.iter().zip(got) {
        assert_eq!(got.as_ref(), Some(body), "{path}");
    }
    assert_eq!(degraded, hit, "one degraded read per damaged file");
}
