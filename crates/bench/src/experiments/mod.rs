//! Experiment generators, one per paper table/figure, indexed by
//! [`EXPERIMENTS`] (DESIGN.md §3 maps them to the paper).

pub mod decode_throughput;
pub mod fig1;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod global_view;
pub mod lossy_fw;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use fanstore_compress::CodecId;
use fanstore_datagen::{DatasetKind, DatasetSpec};
use fanstore_select::Candidate;

/// Generate `n` sample files of a dataset family (deterministic seed).
pub fn sample_files(kind: DatasetKind, n: usize) -> Vec<Vec<u8>> {
    let spec = DatasetSpec::scaled(kind, n, 0xBEEF);
    (0..n).map(|i| spec.generate(i)).collect()
}

/// Measure a codec on sample files as a selection candidate: compression
/// ratio and per-file decompression cost (best of `reps`, lzbench-style).
pub fn measure_candidate(id: CodecId, samples: &[Vec<u8>], reps: u32) -> Candidate {
    let r = crate::evaluate::evaluate_config(id, samples, reps);
    Candidate { name: r.name, decomp_s_per_file: r.decomp_us_per_file / 1e6, ratio: r.ratio }
}

/// One experiment: the name the command line takes, what it regenerates,
/// and `run(quick)` returning its section of the report.
pub type Experiment = (&'static str, &'static str, fn(bool) -> String);

/// Every experiment, in EXPERIMENTS.md order: the paper's evaluation
/// first, then this repository's own studies and release-gate workloads.
/// This is the only list — `fanstore-bench -- <name | all | list>` and
/// [`all`] read it — and the only place an experiment's sizes are chosen:
/// `quick` is the shape CI smokes and the tests run, the other the one
/// EXPERIMENTS.md is generated with.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig1", "Figure 1: utilisation vs node count (modelled)", |_| fig1::run()),
    ("fig6", "Figure 6: FanStore vs TFRecord read throughput", |q| {
        fig6::run(if q { 8 } else { 48 })
    }),
    ("table3", "Table III: POSIX solution read performance", |q| {
        table3::run(if q { 4 } else { 24 })
    }),
    ("fig7", "Figure 7: compressor configuration sweep", |q| {
        fig7::run(if q { 1 } else { 3 }, if q { 1 } else { 2 }, q)
    }),
    ("table4", "Table IV: per-dataset compression ratios", |q| table4::run(if q { 1 } else { 3 })),
    ("table5", "Table V: inputs to the compressor selection algorithm", |_| table5::run()),
    ("table6", "Table VI: FanStore read performance by file size", |_| table6::run()),
    ("table7", "Table VII: compressor selection for the three cases", |q| {
        table7::run(if q { 1 } else { 3 })
    }),
    ("fig8", "Figure 8: application performance under candidate compressors", |q| {
        fig8::run(if q { 1 } else { 3 })
    }),
    ("fig9", "Figure 9: weak scaling (modelled)", |_| fig9::run()),
    ("global_view", "§III: global dataset view vs chunk partitions", |_| global_view::run()),
    ("lossy_fw", "§VIII future work: lossy compression on float datasets", |q| {
        lossy_fw::run(if q { 2 } else { 8 })
    }),
    ("decode_throughput", "codec decode/encode and CRC-32 MB/s vs their references", |q| {
        decode_throughput::run(if q { 1 } else { 4 }, if q { 1 } else { 3 })
    }),
];

/// Run every experiment and compose the full report (the body of
/// EXPERIMENTS.md).
pub fn all(quick: bool) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. this reproduction\n\n");
    out.push_str(
        "Regenerated with `cargo run --release -p fanstore-bench -- all > EXPERIMENTS.md`\n\
         (one section: `-- <name>`; the names: `-- list`).\n\
         Every number is labelled **measured** (this repository's real code on this\n\
         machine, synthetic datasets) or **modelled** (io-sim models calibrated to the\n\
         paper's published hardware measurements). Absolute values differ from the\n\
         paper (different hardware, synthetic data); the claims under test are the\n\
         *shapes*: orderings, ratios, crossovers and scaling curves.\n\n",
    );
    for (_, _, run) in EXPERIMENTS {
        out.push_str(&run(quick));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore_compress::CodecFamily;

    #[test]
    fn measure_candidate_sane() {
        let samples = sample_files(DatasetKind::LanguageTxt, 2);
        let c = measure_candidate(CodecId::new(CodecFamily::Lz4Hc, 6), &samples, 1);
        assert!(c.ratio > 1.5, "text compresses: {}", c.ratio);
        assert!(c.decomp_s_per_file > 0.0);
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn all_has_one_section_per_experiment() {
        let report = all(true);
        let sections = report.lines().filter(|l| l.starts_with("## ")).count();
        assert_eq!(sections, EXPERIMENTS.len(), "{report}");
    }

    #[test]
    fn sample_files_deterministic() {
        let a = sample_files(DatasetKind::EmTif, 1);
        let b = sample_files(DatasetKind::EmTif, 1);
        assert_eq!(a, b);
    }
}
