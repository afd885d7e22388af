//! Epoch driver: runs training-style I/O against a *real* FanStore
//! cluster (not a model) — random batch sampling with every file equally
//! likely per iteration (§IV-C3), `num_iter = num_epoch * data_size /
//! batch_size` (§II-A), and periodic checkpoint writes (§II-B3).

use crate::prefetch::{prefetched_epoch, PrefetchConfig};
use fanstore::ckpt::{CheckpointStore, CkptConfig};
use fanstore::client::FsClient;
use fanstore::FsError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`run_epochs`].
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// Dataset root to enumerate.
    pub root: String,
    /// Files per iteration on this node.
    pub batch_per_node: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Write a checkpoint every `n` epochs (0 = never). Checkpoint files
    /// are named with the epoch number, as the paper describes.
    pub checkpoint_every: usize,
    /// Synthetic checkpoint size in bytes.
    pub checkpoint_bytes: usize,
    /// RNG seed (per-node shuffles derive from it and the rank).
    pub seed: u64,
    /// Run each epoch through the prefetch pipeline (I/O workers, each
    /// reading a whole batch → consumer) instead of the synchronous open/read/close
    /// loop. The pipeline's `batch_size` is overridden with
    /// `batch_per_node` so iteration counting is identical either way.
    /// `None` = synchronous reads, the historical behaviour.
    pub prefetch: Option<PrefetchConfig>,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            root: "train".to_string(),
            batch_per_node: 32,
            epochs: 1,
            checkpoint_every: 0,
            checkpoint_bytes: 0,
            seed: 0,
            prefetch: None,
        }
    }
}

/// Blocked-time totals for one epoch range, extracted from the
/// `train.stall.*.wait_us` histogram deltas (µs summed across the run;
/// see [`prefetched_epoch`] for what each stage means). `ready` is the
/// headline number: the time the training loop sat idle waiting for
/// data — the stall the source paper attributes to I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Consumer blocked on the ready queue (accelerator starved).
    pub ready_wait_us: u64,
    /// I/O workers blocked handing off to a slow consumer.
    pub emit_wait_us: u64,
}

impl StallBreakdown {
    /// Total blocked time across every pipeline stage.
    pub fn total_us(&self) -> u64 {
        self.ready_wait_us + self.emit_wait_us
    }
}

/// Outcome of an epoch run on one node.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Files enumerated at startup.
    pub files_seen: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Total bytes delivered to the "trainer".
    pub bytes_read: u64,
    /// Checkpoints written.
    pub checkpoints: usize,
    /// Degraded-mode events during this run (replica failovers,
    /// read-through fallbacks, lost metadata forwards): non-zero means
    /// training survived faults rather than running clean.
    pub degraded: u64,
    /// Plain bytes produced by decompression during this range
    /// (`client.decompress.bytes` delta).
    pub decode_bytes: u64,
    /// Aggregate decode throughput over this range in MB/s: decompressed
    /// bytes divided by the summed per-codec decode time. 0.0 when
    /// nothing was decoded.
    pub decode_mb_per_s: f64,
    /// Per-epoch-range metrics delta (counters and latency histograms
    /// scoped to this run). Gauges in the delta are last-observed
    /// current values, not differences.
    pub metrics: fanstore::metrics::Snapshot,
    /// Pipeline stall breakdown for this range (all zeros when the run
    /// was synchronous).
    pub stalls: StallBreakdown,
}

/// Run `cfg.epochs` epochs of batch reads on this node's view of the
/// dataset. Every file is visited once per epoch in a shuffled order —
/// the statistical definition of an epoch from §II-A.
pub fn run_epochs(fs: &FsClient, cfg: &EpochConfig) -> Result<EpochReport, FsError> {
    run_epoch_range(fs, cfg, 0, cfg.epochs)
}

/// Checkpoint-store configuration the epoch loop uses: one lineage per
/// rank under `ckpt/epoch/`, delta-encoded, replicated to one ring peer
/// when the cluster has one.
pub fn epoch_ckpt_config(fs: &FsClient) -> CkptConfig {
    CkptConfig {
        tag: "epoch".to_string(),
        replicas: usize::from(fs.nodes() > 1),
        ..CkptConfig::default()
    }
}

/// Deterministic synthetic model state for generation `generation`:
/// mostly stable bytes with sparse per-generation drift, the shape real
/// weight checkpoints show between adjacent epochs — so consecutive
/// generations delta-encode well and restores are byte-checkable.
pub fn checkpoint_payload(rank: usize, generation: u64, bytes: usize) -> Vec<u8> {
    (0..bytes)
        .map(|i| {
            let stable = ((i * 131) ^ (rank * 7)) as u8;
            if i.is_multiple_of(61) {
                stable.wrapping_add(generation as u8)
            } else {
                stable
            }
        })
        .collect()
}

/// Run epochs `start..end` (exclusive) — the resumable form used by the
/// fault-tolerance workflow (§V-E). Epoch indices determine checkpoint
/// names, so a resumed run continues the numbering.
pub fn run_epoch_range(
    fs: &FsClient,
    cfg: &EpochConfig,
    start: usize,
    end: usize,
) -> Result<EpochReport, FsError> {
    let metrics_before = fs.state().metrics.snapshot();
    let degraded_before = fs.state().stats.degraded_total();
    let ckpt_store =
        (cfg.checkpoint_every > 0).then(|| CheckpointStore::new(fs, epoch_ckpt_config(fs)));
    // Startup: enumerate the dataset (the §II-B1 metadata step).
    let files = fs.enumerate(&cfg.root)?;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (fs.rank() as u64) << 32);

    let mut iterations = 0usize;
    let mut bytes_read = 0u64;
    let mut checkpoints = 0usize;

    for epoch in start..end {
        let mut order: Vec<&String> = files.iter().collect();
        order.shuffle(&mut rng);
        if let Some(p) = &cfg.prefetch {
            // Pipelined epoch: same shuffled visit order, but fetched
            // ahead by the prefetch machinery; each delivered batch is
            // one iteration, matching the synchronous count.
            let paths: Vec<String> = order.iter().map(|s| (*s).clone()).collect();
            let pcfg = PrefetchConfig { batch_size: cfg.batch_per_node.max(1), ..*p };
            bytes_read += prefetched_epoch(fs, &paths, &pcfg, |_batch| {
                iterations += 1;
            })?;
        } else {
            for batch in order.chunks(cfg.batch_per_node.max(1)) {
                // A training framework opens each file, reads it fully
                // through the POSIX surface, and closes it.
                for path in batch {
                    let fd = fs.open(path)?;
                    let mut buf = vec![0u8; 64 * 1024];
                    loop {
                        let n = fs.read(fd, &mut buf)?;
                        if n == 0 {
                            break;
                        }
                        bytes_read += n as u64;
                    }
                    fs.close(fd)?;
                }
                iterations += 1;
            }
        }
        if let Some(store) = &ckpt_store {
            if (epoch + 1).is_multiple_of(cfg.checkpoint_every) {
                // Generation g = "epochs 0..g completed" (checkpoints are
                // numbered by epoch, §II-B3) — written through the durable
                // store: chunked, compressed, delta-encoded, replicated.
                let generation = (epoch + 1) as u64;
                let payload = checkpoint_payload(fs.rank(), generation, cfg.checkpoint_bytes);
                store.put(generation, &payload)?;
                checkpoints += 1;
            }
        }
    }

    let delta = fs.state().metrics.snapshot().delta(&metrics_before);
    let decode_bytes = delta.counter("client.decompress.bytes");
    // Summed decode wall time across every codec's histogram; bytes/us ==
    // MB/s (both scale factors are 10^6).
    let decode_us: u64 = delta
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("codec.") && name.ends_with(".decode_us"))
        .map(|(_, h)| h.sum)
        .sum();
    let decode_mb_per_s = if decode_us == 0 { 0.0 } else { decode_bytes as f64 / decode_us as f64 };
    let wait = |stage: &str| {
        delta.histograms.get(&format!("train.stall.{stage}.wait_us")).map_or(0, |h| h.sum)
    };
    let stalls = StallBreakdown { ready_wait_us: wait("ready"), emit_wait_us: wait("emit") };

    Ok(EpochReport {
        files_seen: files.len(),
        iterations,
        bytes_read,
        checkpoints,
        degraded: fs.state().stats.degraded_total() - degraded_before,
        decode_bytes,
        decode_mb_per_s,
        metrics: delta,
        stalls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore::cluster::{ClusterConfig, FanStore};
    use fanstore::prep::{prepare, PrepConfig};

    fn dataset(n: usize, bytes: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("train/d{}/f{i:03}.bin", i % 3),
                    format!("item {i} ").repeat(bytes / 8 + 1).into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn two_epochs_on_two_nodes() {
        let files = dataset(10, 400);
        let total_bytes: u64 = files.iter().map(|(_, d)| d.len() as u64).sum();
        let packed = prepare(files, &PrepConfig { partitions: 2, ..Default::default() });
        let cfg = EpochConfig {
            root: "train".into(),
            batch_per_node: 4,
            epochs: 2,
            checkpoint_every: 1,
            checkpoint_bytes: 256,
            seed: 7,
            prefetch: None,
        };
        let reports = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            |fs| run_epochs(fs, &cfg).unwrap(),
        );
        for r in &reports {
            assert_eq!(r.files_seen, 10);
            // 10 files / batch 4 -> 3 iterations per epoch, 2 epochs.
            assert_eq!(r.iterations, 6);
            assert_eq!(r.bytes_read, total_bytes * 2, "every file read once per epoch");
            assert_eq!(r.checkpoints, 2);
            assert_eq!(r.degraded, 0, "clean run: no recovery events");
            let m = &r.metrics;
            let get = m.histograms.get("client.get.latency_us").expect("GET histogram");
            assert_eq!(get.count, 20, "every file fetched once per epoch");
            assert!(m.counter("client.files.written") >= 2, "checkpoints counted");
        }
    }

    #[test]
    fn iteration_count_formula_holds() {
        // num_iter = num_epoch * data_size / batch_size (§II-A).
        let files = dataset(12, 100);
        let packed = prepare(files, &PrepConfig::default());
        let cfg = EpochConfig {
            root: "train".into(),
            batch_per_node: 3,
            epochs: 5,
            checkpoint_every: 0,
            checkpoint_bytes: 0,
            seed: 1,
            prefetch: None,
        };
        let reports = FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
            run_epochs(fs, &cfg).unwrap()
        });
        assert_eq!(reports[0].iterations, 5 * 12 / 3);
        assert_eq!(reports[0].checkpoints, 0);
    }
}
