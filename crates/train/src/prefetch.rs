//! Asynchronous I/O (prefetch) over a real FanStore cluster — the
//! Figure 5(b) pipeline, implemented with actual I/O worker threads.
//!
//! Keras/TensorFlow/PyTorch loaders run several I/O threads that read the
//! next batch while the accelerator computes on the current one. This
//! module reproduces that with a *batched* fetch stage: a feeder thread
//! groups each batch's paths by owner rank and issues one `GetMany` RPC
//! per rank ([`fanstore::client::FsClient::fetch_many_raw`]), then hands
//! the still-compressed entries to `io_threads` workers that decompress
//! in parallel. Completed files flow through a bounded ready queue whose
//! depth bounds the prefetch distance (how far I/O may run ahead).

use crossbeam_channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use fanstore::client::{FsClient, RawEntry};
use fanstore::metrics::{now_us, Histogram};
use fanstore::FsError;
use std::sync::Arc;

/// Prefetch pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchConfig {
    /// Concurrent I/O worker threads (Keras defaults to 4 per process,
    /// §II-B1). In the batched pipeline these run decompression.
    pub io_threads: usize,
    /// Batches the pipeline may run ahead of the consumer.
    pub queue_batches: usize,
    /// Files per batch.
    pub batch_size: usize,
    /// Files coalesced per fetch round (one `GetMany` RPC per owner rank
    /// per round). 0 means "use `batch_size`". 1 degenerates to one
    /// file per rpc — the baseline that
    /// `tests/read_ladder.rs::a_batch_of_32_is_one_message_where_single_reads_send_32`
    /// counts messages against.
    pub rpc_batch: usize,
    /// Read by nothing; kept because fsbench builds this struct literally.
    pub tenant: u32,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig { io_threads: 4, queue_batches: 2, batch_size: 32, rpc_batch: 0, tenant: 0 }
    }
}

/// Send, recording the blocked time into `stall` when the channel was
/// full. The try-first shape means an unobstructed send never touches
/// the clock, so only genuine stalls land in the histogram.
fn send_stalled<T>(tx: &Sender<T>, value: T, stall: &Histogram) -> Result<(), ()> {
    match tx.try_send(value) {
        Ok(()) => Ok(()),
        Err(TrySendError::Disconnected(_)) => Err(()),
        Err(TrySendError::Full(v)) => {
            let start = now_us();
            let out = tx.send(v).map_err(|_| ());
            stall.record(now_us().saturating_sub(start));
            out
        }
    }
}

/// Receive, recording the blocked time into `stall` when the channel was
/// empty (see [`send_stalled`]).
fn recv_stalled<T>(rx: &Receiver<T>, stall: &Histogram) -> Result<T, ()> {
    match rx.try_recv() {
        Ok(v) => Ok(v),
        Err(TryRecvError::Disconnected) => Err(()),
        Err(TryRecvError::Empty) => {
            let start = now_us();
            let out = rx.recv().map_err(|_| ());
            stall.record(now_us().saturating_sub(start));
            out
        }
    }
}

/// One fetched file.
pub struct Fetched {
    /// Position in the epoch order.
    pub index: usize,
    /// File path.
    pub path: String,
    /// Decompressed contents.
    pub data: Vec<u8>,
}

/// Drive one epoch of prefetched reads over `paths`, invoking `consume`
/// once per batch (the "compute" of Figure 5b). Returns total bytes
/// delivered.
///
/// I/O and consumption overlap: while `consume` runs on batch *i*, the
/// feeder is already coalescing batch *i+1*'s RPCs and the workers are
/// decompressing its entries (bounded by `cfg.queue_batches`).
///
/// Every stage's *blocked* time is recorded into
/// the `train.stall.{ready,feed,work,emit}.wait_us` histograms:
/// `ready` is the consumer starved for data (the stall the paper's
/// argument is about — the accelerator idles), `feed` is the feeder
/// blocked on a full work queue, `work` is a decode worker idle with
/// nothing fetched, and `emit` is a worker blocked handing off to a slow
/// consumer. Unobstructed handoffs record nothing, so the histograms
/// measure contention, not traffic.
pub fn prefetched_epoch<F>(
    fs: &FsClient,
    paths: &[String],
    cfg: &PrefetchConfig,
    mut consume: F,
) -> Result<u64, FsError>
where
    F: FnMut(&[Fetched]),
{
    if paths.is_empty() {
        return Ok(0);
    }
    let batch = cfg.batch_size.max(1);
    let rpc_batch = if cfg.rpc_batch == 0 { batch } else { cfg.rpc_batch };
    let capacity = (cfg.queue_batches.max(1) * batch).max(1);
    let m = &fs.state().metrics;
    let stall_ready: Arc<Histogram> = m.histogram("train.stall.ready.wait_us");
    let stall_feed: Arc<Histogram> = m.histogram("train.stall.feed.wait_us");
    let stall_work: Arc<Histogram> = m.histogram("train.stall.work.wait_us");
    let stall_emit: Arc<Histogram> = m.histogram("train.stall.emit.wait_us");
    type RawItem = (usize, String, Result<RawEntry, FsError>);
    let (work_tx, work_rx) = bounded::<RawItem>(capacity);
    let (ready_tx, ready_rx) = bounded::<Result<Fetched, FsError>>(capacity);

    std::thread::scope(|scope| {
        // Feeder: fetch one rpc_batch at a time — grouped by owner rank,
        // one GetMany per rank — and queue the raw (mostly still
        // compressed) entries for the workers.
        let feed = Arc::clone(&stall_feed);
        scope.spawn(move || {
            for (round, chunk) in paths.chunks(rpc_batch).enumerate() {
                let raw = fs.fetch_many_raw(chunk);
                for (j, (path, entry)) in chunk.iter().zip(raw).enumerate() {
                    let index = round * rpc_batch + j;
                    if send_stalled(&work_tx, (index, path.clone(), entry), &feed).is_err() {
                        return;
                    }
                }
            }
        });
        // I/O workers: decompression fans out here, one entry at a time.
        for _ in 0..cfg.io_threads.max(1) {
            let work_rx: Receiver<RawItem> = work_rx.clone();
            let ready_tx = ready_tx.clone();
            let (work, emit) = (Arc::clone(&stall_work), Arc::clone(&stall_emit));
            scope.spawn(move || {
                while let Ok((index, path, entry)) = recv_stalled(&work_rx, &work) {
                    let result = entry.and_then(|e| fs.finish_read(&path, e)).map(|data| Fetched {
                        index,
                        path,
                        data,
                    });
                    if send_stalled(&ready_tx, result, &emit).is_err() {
                        return;
                    }
                }
            });
        }
        drop(ready_tx);
        drop(work_rx);

        // Consumer: assemble batches as files complete (order within a
        // batch is arrival order, as in real input pipelines). Consumed
        // buffers are recycled into the node's scratch pool, so at steady
        // state the decode workers reuse them instead of allocating.
        let mut total: u64 = 0;
        let mut current: Vec<Fetched> = Vec::with_capacity(batch);
        let finish_batch = |current: &mut Vec<Fetched>, consume: &mut F| {
            consume(current);
            for f in current.drain(..) {
                fs.recycle(f.data);
            }
        };
        while let Ok(fetched) = recv_stalled(&ready_rx, &stall_ready) {
            let f = fetched?;
            total += f.data.len() as u64;
            current.push(f);
            if current.len() == batch {
                finish_batch(&mut current, &mut consume);
            }
        }
        if !current.is_empty() {
            finish_batch(&mut current, &mut consume);
        }
        Ok(total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore::cluster::{ClusterConfig, FanStore};
    use fanstore::prep::{prepare, PrepConfig};

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
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            |fs| {
                let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
                let cfg = PrefetchConfig {
                    io_threads: 3,
                    queue_batches: 2,
                    batch_size: 4,
                    ..Default::default()
                };
                let mut batches = 0usize;
                let mut seen = std::collections::HashSet::new();
                let total = prefetched_epoch(fs, &paths, &cfg, |batch| {
                    batches += 1;
                    for f in batch {
                        assert!(seen.insert(f.index), "file delivered twice");
                    }
                })
                .unwrap();
                (total, batches, seen.len())
            },
        );
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
            let cfg = PrefetchConfig {
                io_threads: 2,
                queue_batches: 1,
                batch_size: 4,
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
        let results = FanStore::run(
            ClusterConfig { nodes: 4, ..Default::default() },
            packed.partitions,
            |fs| {
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
            },
        );
        for n in results {
            assert_eq!(n, 17);
        }
    }

    #[test]
    fn pipeline_recycles_decode_buffers() {
        // After a warmup epoch the pipeline's decode workers must draw
        // every scratch buffer from the node pool: consumed batches are
        // recycled by the consumer loop, so pool misses stay flat across
        // steady-state epochs.
        let files = dataset(24);
        let packed = prepare(files.clone(), &PrepConfig { partitions: 2, ..Default::default() });
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            |fs| {
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
            },
        );
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
            let cfg = PrefetchConfig {
                io_threads: 2,
                queue_batches: 1,
                batch_size: 3,
                ..Default::default()
            };
            let mut sizes = Vec::new();
            prefetched_epoch(fs, &paths, &cfg, |batch| sizes.push(batch.len())).unwrap();
            assert_eq!(sizes, vec![3, 3, 1]);
        });
    }
}
