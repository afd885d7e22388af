//! Dynamic fidelity: trade read fidelity for stall time (progressive
//! containers, DESIGN.md §13).
//!
//! When a dataset is packed progressively ([`fanstore::prep::PrepConfig::
//! progressive_tiers`]), a training loop that is I/O-bound can fetch only
//! a *prefix* of each file's fidelity tiers — fewer bytes move, the
//! accelerator stops starving — and pay the accuracy back later by
//! re-reading the degraded files at full fidelity when the pipeline has
//! headroom.
//!
//! [`fidelity_epoch`] drives that policy over a real cluster: it reads
//! files batch by batch, measures the *stall fraction* (time blocked on
//! I/O over total time) in a sliding window, and switches to
//! fidelity-tier reads ([`fanstore::client::FsClient::read_whole_tier`])
//! while the fraction sits above the configured threshold. Degraded
//! files are remembered and — when refinement is enabled — re-read
//! exactly at the end of the epoch, so the consumer always ends with
//! every byte it would have seen at full fidelity.
//!
//! Approximations never enter the file cache (`read_whole_tier`
//! bypasses it), so dropping fidelity here cannot poison reads issued by
//! anyone else.

use fanstore::client::FsClient;
use fanstore::metrics::now_us;
use fanstore::pack::TIER_FULL;
use fanstore::FsError;

/// Policy knobs for [`fidelity_epoch`].
#[derive(Debug, Clone, Copy)]
pub struct FidelityConfig {
    /// Files per batch (one `consume` call per batch).
    pub batch_size: usize,
    /// Stall fraction (I/O wait / wall time, per window) above which the
    /// loop drops to `low_tier` reads. `>= 1.0` never degrades; `0.0`
    /// degrades from the second window on.
    pub stall_threshold: f64,
    /// Fidelity ceiling while degraded: tiers `0..=low_tier` are read.
    pub low_tier: u8,
    /// Batches per stall-measurement window (decisions are re-taken at
    /// window boundaries; minimum 1).
    pub window: usize,
    /// Re-read every degraded file at full fidelity at the end of the
    /// epoch, delivering the exact bytes through `consume` a second time.
    pub refine: bool,
}

impl Default for FidelityConfig {
    fn default() -> Self {
        FidelityConfig {
            batch_size: 32,
            stall_threshold: 0.5,
            low_tier: 1,
            window: 4,
            refine: true,
        }
    }
}

/// One delivered file.
pub struct Sample<'a> {
    /// Position in the epoch order (refinement re-uses the original
    /// index).
    pub index: usize,
    /// File path.
    pub path: &'a str,
    /// Decoded contents — exact when `tier == TIER_FULL`, an
    /// approximation otherwise.
    pub data: &'a [u8],
    /// Fidelity ceiling this read used ([`TIER_FULL`] = exact).
    pub tier: u8,
}

/// What an epoch under dynamic fidelity did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FidelityReport {
    /// Batches delivered (excluding the refinement pass).
    pub batches: usize,
    /// Files read at full fidelity during the main pass.
    pub full_reads: u64,
    /// Files read degraded (tier-limited) during the main pass.
    pub degraded_reads: u64,
    /// Degraded files re-read exactly by the refinement pass.
    pub refined: u64,
    /// Bytes delivered by the main pass (decoded lengths).
    pub delivered_bytes: u64,
    /// Stall fraction of the *last* completed window — the signal the
    /// final fidelity decision was taken on.
    pub last_stall_fraction: f64,
}

/// Drive one epoch over `paths`, adapting read fidelity to the measured
/// stall fraction. `consume` is called once per batch with the delivered
/// samples; when refinement is on it is called again at the end for each
/// batch of re-read (now exact) degraded files.
pub fn fidelity_epoch<F>(
    fs: &FsClient,
    paths: &[String],
    cfg: &FidelityConfig,
    mut consume: F,
) -> Result<FidelityReport, FsError>
where
    F: FnMut(&[Sample<'_>]),
{
    let batch = cfg.batch_size.max(1);
    let window = cfg.window.max(1);
    let mut report = FidelityReport::default();
    let mut degraded_paths: Vec<(usize, String)> = Vec::new();
    let mut low = false;
    // Window accumulators: time spent fetching vs. total window time.
    let mut win_fetch_us = 0u64;
    let mut win_start = now_us();
    let mut batches_in_window = 0usize;

    for (b, chunk) in paths.chunks(batch).enumerate() {
        let fetch_start = now_us();
        let tier = if low { cfg.low_tier } else { TIER_FULL };
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(chunk.len());
        for (j, path) in chunk.iter().enumerate() {
            let data = if low {
                degraded_paths.push((b * batch + j, path.clone()));
                report.degraded_reads += 1;
                fs.read_whole_tier(path, cfg.low_tier)?
            } else {
                report.full_reads += 1;
                fs.read_whole(path)?
            };
            report.delivered_bytes += data.len() as u64;
            bufs.push(data);
        }
        win_fetch_us += now_us().saturating_sub(fetch_start);
        let samples: Vec<Sample<'_>> = chunk
            .iter()
            .zip(&bufs)
            .enumerate()
            .map(|(j, (path, data))| Sample { index: b * batch + j, path, data, tier })
            .collect();
        consume(&samples);
        report.batches += 1;
        batches_in_window += 1;
        if batches_in_window == window {
            // Decision point: how much of the window went to I/O?
            let wall = now_us().saturating_sub(win_start).max(1);
            let frac = win_fetch_us as f64 / wall as f64;
            report.last_stall_fraction = frac;
            low = frac > cfg.stall_threshold;
            win_fetch_us = 0;
            win_start = now_us();
            batches_in_window = 0;
        }
    }

    if cfg.refine && !degraded_paths.is_empty() {
        // Refinement: the epoch's headroom (or the gap before the next
        // one) pays the fidelity debt — every degraded file is re-read
        // exactly and re-delivered under its original index.
        for chunk in degraded_paths.chunks(batch) {
            let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(chunk.len());
            for (_, path) in chunk {
                bufs.push(fs.read_whole(path)?);
                report.refined += 1;
            }
            let samples: Vec<Sample<'_>> = chunk
                .iter()
                .zip(&bufs)
                .map(|((index, path), data)| Sample { index: *index, path, data, tier: TIER_FULL })
                .collect();
            consume(&samples);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore::cluster::{ClusterConfig, FanStore};
    use fanstore::prep::{prepare, PrepConfig};
    use std::collections::HashMap;

    /// Progressive-packed float dataset: every file is a distinct f32
    /// ramp, so approximations differ from exact bytes measurably.
    fn float_files(n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let data: Vec<u8> =
                    (0..512).flat_map(|k| ((k as f32) * 0.5 + i as f32).to_le_bytes()).collect();
                (format!("t/f{i:03}.f32"), data)
            })
            .collect()
    }

    #[test]
    fn never_stalled_epoch_reads_everything_exactly() {
        let files = float_files(12);
        let packed = prepare(
            files.clone(),
            &PrepConfig { partitions: 2, progressive_tiers: 4, ..Default::default() },
        );
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            |fs| {
                let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
                let cfg = FidelityConfig {
                    batch_size: 4,
                    stall_threshold: 1.1, // unreachable: wall >= fetch
                    ..Default::default()
                };
                let mut got: HashMap<usize, Vec<u8>> = HashMap::new();
                let report = fidelity_epoch(fs, &paths, &cfg, |batch| {
                    for s in batch {
                        got.insert(s.index, s.data.to_vec());
                        assert_eq!(s.tier, TIER_FULL);
                    }
                })
                .unwrap();
                assert_eq!(report.degraded_reads, 0);
                assert_eq!(report.refined, 0);
                assert_eq!(report.full_reads, 12);
                assert_eq!(report.batches, 3);
                for (i, (_, expect)) in files.iter().enumerate() {
                    assert_eq!(&got[&i], expect, "file {i} exact");
                }
                report.delivered_bytes
            },
        );
        let expect: u64 = files.iter().map(|(_, d)| d.len() as u64).sum();
        for total in results {
            assert_eq!(total, expect);
        }
    }

    #[test]
    fn stalled_epoch_degrades_then_refines_exactly() {
        let files = float_files(12);
        let packed = prepare(
            files.clone(),
            &PrepConfig { partitions: 2, progressive_tiers: 4, ..Default::default() },
        );
        FanStore::run(ClusterConfig { nodes: 2, ..Default::default() }, packed.partitions, |fs| {
            let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
            let cfg = FidelityConfig {
                batch_size: 4,
                stall_threshold: 0.0, // always "stalled": degrade after window 1
                low_tier: 1,
                window: 1,
                refine: true,
            };
            let mut latest: HashMap<usize, (Vec<u8>, u8)> = HashMap::new();
            let mut degraded_seen = 0u64;
            let report = fidelity_epoch(fs, &paths, &cfg, |batch| {
                for s in batch {
                    if s.tier != TIER_FULL {
                        degraded_seen += 1;
                    }
                    latest.insert(s.index, (s.data.to_vec(), s.tier));
                }
            })
            .unwrap();
            // Batch 0 ran full fidelity (no window measured yet);
            // batches 1 and 2 degraded; refinement re-read all 8.
            assert_eq!(report.full_reads, 4);
            assert_eq!(report.degraded_reads, 8);
            assert_eq!(report.refined, 8);
            assert_eq!(degraded_seen, 8);
            assert!(report.last_stall_fraction > 0.0);
            // After refinement every index holds the exact bytes.
            for (i, (_, expect)) in files.iter().enumerate() {
                let (data, tier) = &latest[&i];
                assert_eq!(*tier, TIER_FULL, "file {i} refined");
                assert_eq!(data, expect, "file {i} exact after refinement");
            }
        });
    }

    #[test]
    fn degraded_reads_never_pollute_the_cache() {
        // A low-fidelity read must not leave approximate bytes where a
        // full read would find them: read degraded, then read whole — the
        // whole read must be exact.
        let files = float_files(4);
        let packed =
            prepare(files.clone(), &PrepConfig { progressive_tiers: 4, ..Default::default() });
        FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
            for (path, expect) in &files {
                let approx = fs.read_whole_tier(path, 0).unwrap();
                assert_eq!(approx.len(), expect.len());
                assert_ne!(&approx, expect, "tier 0 alone is an approximation");
                let exact = fs.read_whole(path).unwrap();
                assert_eq!(&exact, expect, "{path} exact after a degraded read");
            }
        });
    }

    #[test]
    fn refinement_can_be_disabled() {
        let files = float_files(8);
        let packed = prepare(
            files.clone(),
            &PrepConfig { partitions: 2, progressive_tiers: 2, ..Default::default() },
        );
        FanStore::run(ClusterConfig { nodes: 2, ..Default::default() }, packed.partitions, |fs| {
            let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
            let cfg = FidelityConfig {
                batch_size: 2,
                stall_threshold: 0.0,
                low_tier: 0,
                window: 1,
                refine: false,
            };
            let report = fidelity_epoch(fs, &paths, &cfg, |_| {}).unwrap();
            assert_eq!(report.refined, 0);
            assert_eq!(report.full_reads + report.degraded_reads, 8);
            assert!(report.degraded_reads > 0);
        });
    }
}
