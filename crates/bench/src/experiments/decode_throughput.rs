//! decode_throughput: word-wide decoders vs the retained byte-wise
//! reference, MB/s per registry codec — and the table-sliced CRC-32 vs
//! the byte-wise loop, since every remote byte is checksummed before it
//! is decoded.
//!
//! Training I/O pays decompression on every sample read (§IV-C2), so the
//! decode loop *is* the hot path: a 2x faster decoder halves the CPU the
//! input pipeline steals from the trainer. This experiment pins that
//! claim with numbers: for every codec family in the registry it decodes
//! the same compressed corpus twice — once through the optimized decoders
//! (8/16-byte wild copies, pattern-doubled overlaps and, for LZ4, the
//! reserve-once cursor with its shortcut sequence path, all in
//! `fanstore_compress::copy`) and once through the byte-wise originals kept in
//! `fanstore_compress::reference` — and reports both in MB/s of plain
//! output, lzbench-style (best of `reps`).
//!
//! Families whose decode loops were not rewritten (Huffman, the range
//! coders, …) dispatch to the same code on both sides; their speedup
//! hovers at 1.0x and serves as the control group.

use std::time::Instant;

use fanstore_compress::registry::create;
use fanstore_compress::{compress_to_vec, reference, CodecFamily, CodecId};
use fanstore_datagen::{DatasetKind, DatasetSpec};

use crate::report::{fmt_f, md_table};

/// One representative configuration per registry family, hot-loop
/// families first (they are the ones the rewrite targets).
pub fn codecs_under_test() -> Vec<CodecId> {
    vec![
        CodecId::new(CodecFamily::Lz4Fast, 1),
        CodecId::new(CodecFamily::Lzf, 2),
        CodecId::new(CodecFamily::Lz4Hc, 9),
        CodecId::new(CodecFamily::Lzsse8, 2),
        CodecId::new(CodecFamily::ZstdLite, 6),
        CodecId::new(CodecFamily::ShuffleLz, 4),
        CodecId::new(CodecFamily::DeltaLz, 4),
        CodecId::new(CodecFamily::ShuffleZstd, 4),
        CodecId::new(CodecFamily::Zling, 2),
        CodecId::new(CodecFamily::Store, 0),
        CodecId::new(CodecFamily::Rle, 0),
        CodecId::new(CodecFamily::Huffman, 0),
        CodecId::new(CodecFamily::BrotliLite, 5),
        CodecId::new(CodecFamily::LzmaLite, 3),
        CodecId::new(CodecFamily::Xz, 3),
        CodecId::new(CodecFamily::BzipLite, 3),
    ]
}

/// Measured decode rates for one codec over the corpus.
#[derive(Debug, Clone)]
pub struct DecodeRow {
    /// Codec under test.
    pub id: CodecId,
    /// Compression ratio on the corpus (input/output).
    pub ratio: f64,
    /// Optimized (word-wide) decode throughput, MB/s of plain output.
    pub optimized_mb_s: f64,
    /// Byte-wise reference decode throughput, MB/s of plain output.
    pub reference_mb_s: f64,
}

impl DecodeRow {
    /// optimized / reference.
    pub fn speedup(&self) -> f64 {
        self.optimized_mb_s / self.reference_mb_s.max(f64::MIN_POSITIVE)
    }
}

/// Mixed datagen corpus: `n_per_kind` files from each of the six paper
/// dataset families, deterministic seed.
pub fn corpus(n_per_kind: usize) -> Vec<Vec<u8>> {
    DatasetKind::ALL
        .iter()
        .flat_map(|&kind| {
            let spec = DatasetSpec::scaled(kind, n_per_kind, 0xBEEF);
            (0..n_per_kind).map(move |i| spec.generate(i))
        })
        .collect()
}

/// Best-of-`reps` wall time for decoding `compressed` with `decode`,
/// returned as MB/s of produced output.
fn rate(total_out: usize, reps: u32, mut decode: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        decode();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    total_out as f64 / best.max(f64::MIN_POSITIVE) / 1e6
}

/// Measure one codec on a pre-generated corpus.
pub fn measure(id: CodecId, samples: &[Vec<u8>], reps: u32) -> DecodeRow {
    let codec = create(id).expect("valid codec");
    let compressed: Vec<Vec<u8>> =
        samples.iter().map(|s| compress_to_vec(codec.as_ref(), s)).collect();
    let input: usize = samples.iter().map(Vec::len).sum();
    let output: usize = compressed.iter().map(Vec::len).sum();

    let optimized_mb_s = rate(input, reps, || {
        for (c, s) in compressed.iter().zip(samples) {
            let out = fanstore_compress::decompress_to_vec(codec.as_ref(), c, s.len())
                .expect("optimized decode");
            std::hint::black_box(&out);
        }
    });
    let reference_mb_s = rate(input, reps, || {
        for (c, s) in compressed.iter().zip(samples) {
            let out = reference::decompress(id, c, s.len()).expect("reference decode");
            std::hint::black_box(&out);
        }
    });
    DecodeRow { id, ratio: input as f64 / output.max(1) as f64, optimized_mb_s, reference_mb_s }
}

/// Checksum throughput over the corpus: `(sliced, byte-wise)` MB/s.
pub fn measure_crc(samples: &[Vec<u8>], reps: u32) -> (f64, f64) {
    let bytes: usize = samples.iter().map(Vec::len).sum();
    let over = |crc: fn(&[u8]) -> u32| {
        rate(bytes, reps, || {
            for s in samples {
                std::hint::black_box(crc(std::hint::black_box(s)));
            }
        })
    };
    (over(fanstore_compress::crc32::crc32), over(reference::crc32))
}

/// Generate the decode_throughput report section.
pub fn run(n_per_kind: usize, reps: u32) -> String {
    let samples = corpus(n_per_kind);
    let rows: Vec<DecodeRow> =
        codecs_under_test().into_iter().map(|id| measure(id, &samples, reps)).collect();
    let (crc_sliced, crc_bytewise) = measure_crc(&samples, reps);
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                format!("{:.2}", r.ratio),
                fmt_f(r.reference_mb_s),
                fmt_f(r.optimized_mb_s),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    table.push(vec![
        "crc32 (not a codec)".to_string(),
        "-".to_string(),
        fmt_f(crc_bytewise),
        fmt_f(crc_sliced),
        format!("{:.2}x", crc_sliced / crc_bytewise.max(f64::MIN_POSITIVE)),
    ]);
    format!(
        "## decode_throughput — word-wide decoders vs byte-wise reference (measured)\n\n\
         Decode MB/s of plain output over a mixed datagen corpus ({n_per_kind} files\n\
         from each of the six dataset families, best of {reps} passes). `optimized`\n\
         is the shipping hot path (8/16-byte wild copies + pattern-doubled overlap\n\
         copies in `fanstore_compress::copy`; the two LZ4 codecs decode through its\n\
         reserve-once cursor and shortcut sequence path); `reference` is the retained\n\
         byte-wise decoder the differential proptests pin it against. Families\n\
         outside the LZ rewrite dispatch identically on both sides (speedup ~1.0x,\n\
         the control group). The last row is the checksum every remote byte passes\n\
         before decode: slicing-by-16 `crc32` against the byte-wise\n\
         `reference::crc32`, MB/s of input over the same corpus.\n\n{}",
        md_table(&["codec", "ratio", "reference MB/s", "optimized MB/s", "speedup"], &table),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders() {
        let r = run(1, 1);
        assert!(r.contains("decode_throughput"));
        assert!(r.contains("lz4fast"));
        assert!(r.contains("speedup"));
    }

    /// The read path's two per-byte costs, as ratios against the byte-wise
    /// originals on this machine: the cold read pays one CRC pass and one
    /// decode, and neither may fall back towards the loops they replaced.
    #[test]
    fn lz4hc_at_least_2x_and_crc32_at_least_3x_reference() {
        if cfg!(debug_assertions) {
            return; // as below: machine-code quality, release builds only
        }
        let samples = corpus(2);
        let row = measure(CodecId::new(CodecFamily::Lz4Hc, 9), &samples, 3);
        assert!(
            row.speedup() >= 2.0,
            "lz4hc must decode >= 2x reference::lz4_block: {:.0} vs {:.0} MB/s",
            row.optimized_mb_s,
            row.reference_mb_s,
        );
        let (sliced, bytewise) = measure_crc(&samples, 3);
        assert!(
            sliced >= 3.0 * bytewise,
            "crc32 must run >= 3x reference::crc32: {sliced:.0} vs {bytewise:.0} MB/s"
        );
    }

    #[test]
    fn lz4fast_and_lzf_at_least_2x_reference() {
        if cfg!(debug_assertions) {
            // The 2x gate compares machine code quality; it only means
            // something on optimized builds (CI runs this under
            // --release).
            return;
        }
        let samples = corpus(2);
        for (family, level) in [(CodecFamily::Lz4Fast, 1), (CodecFamily::Lzf, 2)] {
            let row = measure(CodecId::new(family, level), &samples, 3);
            assert!(
                row.speedup() >= 2.0,
                "{} must decode >= 2x the byte-wise reference: {:.0} vs {:.0} MB/s",
                row.id,
                row.optimized_mb_s,
                row.reference_mb_s,
            );
        }
    }
}
