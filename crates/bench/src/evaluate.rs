//! lzbench-style compressor evaluation harness: the one loop in this
//! crate that measures a codec.
//!
//! The paper samples files from each dataset and runs ~180 compressor
//! configurations over them, recording compression ratio and decompression
//! cost (§VII-D, Figure 7, Table IV). [`full_sweep`] enumerates our
//! configuration space; [`evaluate_config`] measures one configuration over
//! a set of sample files, for Figure 7's sweep and for the selection
//! tables' candidates ([`crate::experiments::measure_candidate`]).

use std::time::Instant;

use fanstore_compress::registry::create;
use fanstore_compress::{compress_to_vec, decompress_to_vec, CodecFamily, CodecId};
use rayon::prelude::*;

/// Enumerate the full configuration sweep.
///
/// The paper sweeps ~180 lzbench (compressor, option) pairs; our suite has
/// fewer codec families (each one re-implemented from scratch), so the
/// sweep enumerates every real knob we have — 130 configurations spanning
/// the same (ratio, decompression-cost) envelope. The *coverage of the
/// tradeoff space*, not the raw count, is what Figure 7 and the selection
/// algorithm depend on.
pub fn full_sweep() -> Vec<CodecId> {
    let mut ids = vec![
        CodecId::new(CodecFamily::Store, 0),
        CodecId::new(CodecFamily::Rle, 0),
        CodecId::new(CodecFamily::Huffman, 0),
    ];
    for level in 1..=8 {
        ids.push(CodecId::new(CodecFamily::Lzf, level));
    }
    for accel in 1..=32 {
        ids.push(CodecId::new(CodecFamily::Lz4Fast, accel));
    }
    for level in 1..=12 {
        ids.push(CodecId::new(CodecFamily::Lz4Hc, level));
    }
    for level in 1..=8 {
        ids.push(CodecId::new(CodecFamily::Lzsse8, level));
    }
    for level in 0..=9 {
        ids.push(CodecId::new(CodecFamily::Zling, level));
    }
    for quality in 1..=11 {
        ids.push(CodecId::new(CodecFamily::BrotliLite, quality));
    }
    for level in 1..=9 {
        ids.push(CodecId::new(CodecFamily::LzmaLite, level));
    }
    for level in 1..=9 {
        ids.push(CodecId::new(CodecFamily::Xz, level));
    }
    for level in 1..=9 {
        ids.push(CodecId::new(CodecFamily::ZstdLite, level));
    }
    for width in [2u8, 4, 8] {
        ids.push(CodecId::new(CodecFamily::ShuffleLz, width));
        ids.push(CodecId::new(CodecFamily::ShuffleZstd, width));
    }
    for width in [1u8, 2, 4, 8] {
        ids.push(CodecId::new(CodecFamily::DeltaLz, width));
    }
    for level in 1..=9 {
        ids.push(CodecId::new(CodecFamily::BzipLite, level));
    }
    ids
}

/// Measurement record for one configuration over one sample set.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// Configuration measured.
    pub id: CodecId,
    /// Display name, e.g. `lz4hc-9`.
    pub name: String,
    /// Total input bytes across samples.
    pub input_bytes: usize,
    /// Total compressed bytes across samples.
    pub compressed_bytes: usize,
    /// input/compressed.
    pub ratio: f64,
    /// Compression throughput in MB/s.
    pub comp_mbps: f64,
    /// Decompression throughput in MB/s.
    pub decomp_mbps: f64,
    /// Mean decompression cost per file in microseconds.
    pub decomp_us_per_file: f64,
}

/// Measure one configuration over `samples`. Each sample is compressed and
/// decompressed `reps` times; the best (minimum) time is kept, as lzbench
/// does, to suppress scheduling noise.
pub fn evaluate_config(id: CodecId, samples: &[Vec<u8>], reps: u32) -> EvalRecord {
    let codec = create(id).expect("valid config id");
    let input_bytes: usize = samples.iter().map(Vec::len).sum();

    let mut compressed = Vec::with_capacity(samples.len());
    let mut comp_best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        compressed.clear();
        let t0 = Instant::now();
        compressed.extend(samples.iter().map(|s| compress_to_vec(codec.as_ref(), s)));
        comp_best = comp_best.min(t0.elapsed().as_secs_f64());
    }
    let compressed_bytes: usize = compressed.iter().map(Vec::len).sum();

    let mut decomp_best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for (c, s) in compressed.iter().zip(samples) {
            let out = decompress_to_vec(codec.as_ref(), c, s.len()).expect("roundtrip");
            std::hint::black_box(&out);
        }
        decomp_best = decomp_best.min(t0.elapsed().as_secs_f64());
    }

    let mb = input_bytes as f64 / 1e6;
    EvalRecord {
        id,
        name: id.to_string(),
        input_bytes,
        compressed_bytes,
        ratio: if compressed_bytes == 0 {
            1.0
        } else {
            input_bytes as f64 / compressed_bytes as f64
        },
        comp_mbps: mb / comp_best.max(1e-12),
        decomp_mbps: mb / decomp_best.max(1e-12),
        decomp_us_per_file: decomp_best * 1e6 / samples.len().max(1) as f64,
    }
}

/// Run the full sweep over `samples` in parallel — one configuration per
/// available CPU at a time, so each timing loop has a core to itself.
/// Returns records in sweep order.
pub fn sweep(samples: &[Vec<u8>], reps: u32) -> Vec<EvalRecord> {
    full_sweep().into_par_iter().map(|id| evaluate_config(id, samples, reps)).collect()
}

/// From a set of records, the Pareto frontier in (decompression cost,
/// ratio) space: configurations not dominated by any other (faster decode
/// *and* better ratio). This is what Figure 7 highlights.
pub fn pareto_frontier(records: &[EvalRecord]) -> Vec<&EvalRecord> {
    let mut frontier: Vec<&EvalRecord> = Vec::new();
    for r in records {
        let dominated = records.iter().any(|other| {
            (other.decomp_us_per_file < r.decomp_us_per_file && other.ratio >= r.ratio)
                || (other.decomp_us_per_file <= r.decomp_us_per_file && other.ratio > r.ratio)
        });
        if !dominated {
            frontier.push(r);
        }
    }
    frontier.sort_by(|a, b| a.decomp_us_per_file.total_cmp(&b.decomp_us_per_file));
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_samples() -> Vec<Vec<u8>> {
        vec![
            b"a small sample of compressible english text for the evaluation harness ".repeat(30),
            b"another sample, slightly different content to vary the histogram ".repeat(30),
        ]
    }

    #[test]
    fn sweep_has_at_least_paper_scale_minus_padding() {
        let ids = full_sweep();
        assert!(ids.len() >= 80, "sweep should be broad, got {}", ids.len());
        // All ids must be instantiable.
        for id in &ids {
            assert!(create(*id).is_ok(), "cannot create {id}");
        }
        // No duplicates.
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn evaluate_store_ratio_is_one() {
        let rec = evaluate_config(CodecId::new(CodecFamily::Store, 0), &text_samples(), 1);
        assert!((rec.ratio - 1.0).abs() < 1e-9);
        assert!(rec.decomp_mbps > 0.0);
    }

    #[test]
    fn evaluate_lz4hc_beats_store_on_text() {
        let samples = text_samples();
        let rec = evaluate_config(CodecId::new(CodecFamily::Lz4Hc, 9), &samples, 1);
        assert!(rec.ratio > 2.0, "text should compress over 2x, got {}", rec.ratio);
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let samples = text_samples();
        let records: Vec<EvalRecord> = [
            CodecId::new(CodecFamily::Store, 0),
            CodecId::new(CodecFamily::Lz4Fast, 1),
            CodecId::new(CodecFamily::Lz4Hc, 9),
            CodecId::new(CodecFamily::Zling, 2),
            CodecId::new(CodecFamily::LzmaLite, 5),
        ]
        .into_iter()
        .map(|id| evaluate_config(id, &samples, 1))
        .collect();
        let frontier = pareto_frontier(&records);
        assert!(!frontier.is_empty());
        // Along the frontier, ratio must be non-decreasing with cost.
        for pair in frontier.windows(2) {
            assert!(pair[1].ratio >= pair[0].ratio);
        }
    }
}
