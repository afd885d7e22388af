//! batch_fetch: batched GetMany throughput vs the one-file-per-rpc baseline.
//!
//! The paper's training I/O is dominated by many small-file GETs, each
//! paying one fabric round trip (§IV-B). The batched read path coalesces
//! a prefetch round into one GetMany RPC per owner rank, so the per-
//! message latency amortises across the batch while decompression still
//! fans out over the I/O workers. Here the interconnect cost is modelled
//! deterministically — every fabric message is delayed by a fixed
//! per-message latency via the fault injector — so the measured curve
//! isolates the protocol change: files/s must grow with the coalescing
//! width, with batch=32 at least 2x over batch=1 on the 4-rank config.

use std::time::{Duration, Instant};

use fanstore::cache::CacheConfig;
use fanstore::cluster::{ClusterConfig, FanStore};
use fanstore::prep::{prepare, PrepConfig};
use fanstore_train::prefetch::{prefetched_epoch, PrefetchConfig};
use mpi_sim::FaultPlan;

use crate::report::{fmt_f, md_table};

const NODES: usize = 4;
/// Modelled one-way fabric latency, charged to every message.
const LINK_DELAY: Duration = Duration::from_micros(500);
/// Coalescing widths under test (1 = one file per rpc, the baseline).
pub const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

fn dataset(n: usize) -> Vec<(String, Vec<u8>)> {
    (0..n)
        .map(|i| {
            (
                format!("bf/shard{}/s{i:04}.bin", i % 4),
                format!("batch-fetch sample {i} ").repeat(40 + (i % 5) * 15).into_bytes(),
            )
        })
        .collect()
}

/// Mean files/s across ranks for one coalescing width: `epochs` cold
/// passes (eager cache release) of the prefetch pipeline over `n` files
/// on the delayed 4-rank fabric.
fn measure(rpc_batch: usize, n: usize, epochs: usize) -> f64 {
    let files = dataset(n);
    let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
    let packed = prepare(files, &PrepConfig { partitions: NODES, ..Default::default() });
    let rates = FanStore::run(
        ClusterConfig {
            nodes: NODES,
            cache: CacheConfig { capacity: 1 << 30, release_on_zero: true, ..Default::default() },
            fault_plan: Some(FaultPlan::new(0xBF57).delay_prob(1.0, LINK_DELAY)),
            ..Default::default()
        },
        packed.partitions,
        |fs| {
            let cfg = PrefetchConfig {
                io_threads: 4,
                queue_batches: 2,
                batch_size: 32,
                rpc_batch,
                tenant: 0,
            };
            let t0 = Instant::now();
            for _ in 0..epochs {
                prefetched_epoch(fs, &paths, &cfg, |batch| {
                    std::hint::black_box(batch.len());
                })
                .expect("prefetched epoch");
            }
            (epochs * paths.len()) as f64 / t0.elapsed().as_secs_f64()
        },
    );
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// Measure every batch size; returns `(rpc_batch, files_per_s)` rows.
pub fn measure_all(n: usize, epochs: usize) -> Vec<(usize, f64)> {
    BATCH_SIZES.iter().map(|&b| (b, measure(b, n, epochs))).collect()
}

/// Generate the batch_fetch report section.
pub fn run(n: usize, epochs: usize) -> String {
    let measured = measure_all(n, epochs);
    let base = measured[0].1;
    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|&(b, rate)| vec![b.to_string(), fmt_f(rate), format!("{:.1}x", rate / base)])
        .collect();
    format!(
        "## batch_fetch — GetMany coalescing vs one file per rpc (measured)\n\n\
         Mean files/s per rank: {n} files x {epochs} epochs on a {NODES}-rank cluster,\n\
         eager cache release (every epoch refetches over the fabric) and a modelled\n\
         {}us delay charged to every fabric message. rpc_batch=1 issues one GET per\n\
         file; wider batches coalesce each prefetch round into one GetMany RPC per\n\
         owner rank, so the per-message latency amortises while decompression still\n\
         fans out across the I/O workers.\n\n{}",
        LINK_DELAY.as_micros(),
        md_table(&["rpc_batch", "files/s", "speedup"], &rows),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn batch32_at_least_2x_over_single_get() {
        // The acceptance gate for the batched read path: on the 4-rank
        // sim config with per-message latency, batch=32 must at least
        // double the one-file-per-rpc baseline.
        let measured = super::measure_all(32, 2);
        let base = measured[0].1;
        let batch32 = measured.iter().find(|(b, _)| *b == 32).unwrap().1;
        assert!(
            batch32 >= 2.0 * base,
            "batch=32 must be >= 2x batch=1: base {base:.0} vs batch32 {batch32:.0}"
        );
    }

    #[test]
    fn report_renders() {
        let r = super::run(8, 1);
        assert!(r.contains("batch_fetch"));
        assert!(r.contains("rpc_batch"));
    }
}
