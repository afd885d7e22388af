//! Figure 7: the compressor-configuration sweep in (decompression cost,
//! compression ratio) space on the TIF (EM) and NPZ (Tokamak) datasets.
//!
//! Fully **measured**: every configuration in the suite is run over
//! sample files from the two synthetic datasets; the report lists the
//! extreme points (fastest decompression / highest ratio, the green
//! crosses and red pluses of the paper's figure) and the Pareto frontier.

use fanstore_datagen::stats::{summarize, DatasetSummary};
use fanstore_datagen::{DatasetKind, DatasetSpec};

use crate::evaluate::{pareto_frontier, sweep, EvalRecord};
use crate::experiments::sample_files;
use crate::report::{ascii_plot, fmt_f, md_table};

fn sweep_dataset(kind: DatasetKind, n_samples: usize, reps: u32) -> Vec<EvalRecord> {
    let samples = sample_files(kind, n_samples);
    sweep(&samples, reps)
}

fn dataset_entropy(kind: DatasetKind, n: usize) -> DatasetSummary {
    summarize(&DatasetSpec::scaled(kind, n.max(1), 0xBEEF), n.max(1))
}

fn summarize_sweep(kind: DatasetKind, records: &[EvalRecord], n: usize, full: bool) -> String {
    let frontier = pareto_frontier(records);
    let fastest = records
        .iter()
        .filter(|r| r.ratio > 1.05)
        .min_by(|a, b| a.decomp_us_per_file.total_cmp(&b.decomp_us_per_file))
        .expect("non-empty sweep");
    let best_ratio =
        records.iter().max_by(|a, b| a.ratio.total_cmp(&b.ratio)).expect("non-empty sweep");

    let mut rows: Vec<Vec<String>> = frontier
        .iter()
        .map(|r| {
            vec![r.name.clone(), fmt_f(r.ratio), fmt_f(r.decomp_us_per_file), fmt_f(r.decomp_mbps)]
        })
        .collect();
    if !full {
        rows.truncate(8);
    }

    let points: Vec<(f64, f64)> = records
        .iter()
        .filter(|r| r.ratio >= 1.0)
        .map(|r| (r.decomp_us_per_file.max(0.01).log10(), r.ratio))
        .collect();

    let ent = dataset_entropy(kind, n);
    format!(
        "### {} ({} configurations measured; order-0 entropy {} bits/byte, \
         order-1 {} — entropy-bound ratio {})\n\n\
         Fastest useful decompression: **{}** ({} us/file at ratio {}).\n\
         Highest ratio: **{}** (ratio {} at {} us/file) — {:.1}x the decompression\n\
         cost of the fastest point (paper: the high-ratio compressors sit two to\n\
         three orders of magnitude above the fast ones).\n\n\
         Pareto frontier (cost-ascending):\n\n{}\n\
         Scatter, x = log10(decompression us/file), y = ratio:\n```\n{}```\n",
        kind.name(),
        records.len(),
        fmt_f(ent.entropy_bits),
        fmt_f(ent.order1_bits),
        fmt_f(ent.entropy_ratio_bound()),
        fastest.name,
        fmt_f(fastest.decomp_us_per_file),
        fmt_f(fastest.ratio),
        best_ratio.name,
        fmt_f(best_ratio.ratio),
        fmt_f(best_ratio.decomp_us_per_file),
        best_ratio.decomp_us_per_file / fastest.decomp_us_per_file,
        md_table(&["config", "ratio", "decomp us/file", "decomp MB/s"], &rows),
        ascii_plot(&points, 56, 12),
    )
}

/// Generate the Figure 7 report: `n_samples` files per dataset, `reps`
/// timing repetitions, `quick` trims the frontier table.
pub fn run(n_samples: usize, reps: u32, quick: bool) -> String {
    let em = sweep_dataset(DatasetKind::EmTif, n_samples, reps);
    let npz = sweep_dataset(DatasetKind::TokamakNpz, n_samples.max(8), reps);
    format!(
        "## Figure 7 — compressor sweep in (decompression cost, ratio) space (measured)\n\n{}\n{}",
        summarize_sweep(DatasetKind::EmTif, &em, n_samples, !quick),
        summarize_sweep(DatasetKind::TokamakNpz, &npz, n_samples.max(8), !quick),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_and_best_ratio_are_different_families() {
        // The core Figure 7 shape: the fastest decompressor is not the
        // best-ratio one, on the EM dataset.
        let records = sweep_dataset(DatasetKind::EmTif, 1, 1);
        let fastest = records
            .iter()
            .filter(|r| r.ratio > 1.05)
            .min_by(|a, b| a.decomp_us_per_file.total_cmp(&b.decomp_us_per_file))
            .unwrap();
        let best = records.iter().max_by(|a, b| a.ratio.total_cmp(&b.ratio)).unwrap();
        assert_ne!(fastest.name, best.name);
        assert!(best.ratio > fastest.ratio);
        assert!(best.decomp_us_per_file > fastest.decomp_us_per_file);
    }
}
