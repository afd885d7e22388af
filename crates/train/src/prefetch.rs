//! Asynchronous I/O (prefetch) over a real FanStore cluster — the
//! Figure 5(b) pipeline, implemented with actual I/O worker threads.
//!
//! Keras/TensorFlow/PyTorch loaders run several I/O threads, each of which
//! reads the next batch while the accelerator computes on the current one.
//! This module does the same: each of `io_threads` workers claims the next
//! `rpc_batch` of paths and reads it with
//! [`fanstore::client::FsClient::read_many`] — one `GetMany` RPC per owner
//! rank per ladder round, every entry decoded inside its round — then
//! hands the files to a bounded ready queue whose depth bounds the
//! prefetch distance (how far I/O may run ahead).

use crossbeam_channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use fanstore::client::FsClient;
use fanstore::metrics::{now_us, Histogram};
use fanstore::FsError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Prefetch pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchConfig {
    /// Concurrent I/O worker threads (Keras defaults to 4 per process,
    /// §II-B1), each reading a whole `rpc_batch`: fetch and decode overlap
    /// across workers, not inside one. With 1, the worker fetches and then
    /// decodes, as a single DataLoader worker does.
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
/// delivered; the first failed file ends the epoch with its error.
///
/// I/O and consumption overlap: while `consume` runs on batch *i*, the
/// workers are already reading the batches after it (bounded by
/// `cfg.queue_batches`).
///
/// Every stage's *blocked* time is recorded into the
/// `train.stall.{ready,emit}.wait_us` histograms: `ready` is the consumer
/// starved for data (the stall the paper's argument is about — the
/// accelerator idles), and `emit` is a worker blocked handing off to a
/// slow consumer. Unobstructed handoffs record nothing, so the histograms
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
    let (stall_ready, stall_emit) =
        (m.histogram("train.stall.ready.wait_us"), m.histogram("train.stall.emit.wait_us"));
    let next_round = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Declared inside the scope, so a consumer that returns early drops
        // the receiver before the scope joins: a worker blocked on a full
        // queue then wakes to a disconnect and ends.
        let (ready_tx, ready_rx) = bounded::<Result<Fetched, FsError>>(capacity);
        // I/O workers: each claims the next rpc_batch of paths and reads
        // it whole, fetch and decode alike.
        for _ in 0..cfg.io_threads.max(1) {
            let ready_tx = ready_tx.clone();
            let (emit, next_round) = (&stall_emit, &next_round);
            scope.spawn(move || loop {
                // Relaxed: the counter only hands out rounds; it publishes
                // no data.
                let round = next_round.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = paths.chunks(rpc_batch).nth(round) else { return };
                for (j, (path, got)) in chunk.iter().zip(fs.read_many(chunk)).enumerate() {
                    let index = round * rpc_batch + j;
                    let fetched = got.map(|data| Fetched { index, path: path.clone(), data });
                    if send_stalled(&ready_tx, fetched, emit).is_err() {
                        return;
                    }
                }
            });
        }
        drop(ready_tx);

        // Consumer: assemble batches as files complete (order within a
        // batch is arrival order, as in real input pipelines). Consumed
        // buffers are recycled into the node's scratch pool, so at steady
        // state the workers' decodes reuse them instead of allocating.
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
