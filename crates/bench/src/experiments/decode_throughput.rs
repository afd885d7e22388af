//! decode_throughput: word-wide decoders vs the retained byte-wise
//! reference, MB/s per registry codec — and the CRC-32 kernels vs the
//! byte-wise loop, since every remote byte is checksummed before it is
//! decoded.
//!
//! Training I/O pays decompression on every sample read (§IV-C2), so the
//! decode loop *is* the hot path: a 2x faster decoder halves the CPU the
//! input pipeline steals from the trainer. This experiment pins that
//! claim with numbers: for every codec family in the registry it decodes
//! the same compressed corpus twice — once through the optimized decoders
//! (every LZ decoder writes through the reserve-once `copy::Cursor`:
//! 16-byte literal stores, 8/16-byte wild match copies, pattern-doubled
//! overlaps and, for LZ4, its shortcut sequence path) and once through
//! the byte-wise originals kept in `fanstore_compress::reference` — and
//! reports both in MB/s of plain output, lzbench-style (best of `reps`).
//!
//! Families with no byte-wise twin (Huffman, zling, the range coders, …)
//! dispatch to the same code on both sides; their speedup hovers at 1.0x
//! and serves as the control group.
//!
//! The second half is the same question asked of the write path, where
//! the *encoder* is what a caller waits for: a WAL flush compresses the
//! memtable inline in the `write_whole` that filled it, and a checkpoint
//! `put` compresses every chunk before it returns. [`encode_rows`]
//! measures encode MB/s, ratio and decode MB/s for the codec points that
//! path can choose between, on the data it sees — 16 KiB slices of an EM
//! tile (what `fsbench`'s `durable_writes` flushes) and checkpoint chunks
//! with their cross-generation deltas — and [`fused_vs_two_pass`] sets
//! the `lz4fast-1` encoder, which writes its block while it parses,
//! against the retained collect-then-emit form in
//! `fanstore_compress::reference`.

use std::time::Instant;

use fanstore_compress::filters::xdelta;
use fanstore_compress::registry::create;
use fanstore_compress::{compress_to_vec, reference, Codec, CodecFamily, CodecId};
use fanstore_datagen::{DatasetKind, DatasetSpec};
use fanstore_train::epoch::checkpoint_payload;

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

/// Decode every `compressed[i]` back to `samples[i].len()` bytes.
fn decode_all(codec: &dyn Codec, compressed: &[Vec<u8>], samples: &[Vec<u8>]) {
    for (c, s) in compressed.iter().zip(samples) {
        let out = fanstore_compress::decompress_to_vec(codec, c, s.len()).expect("decode");
        std::hint::black_box(&out);
    }
}

/// Encode every value into a fresh buffer, as a flush does.
fn encode_all(codec: &dyn Codec, values: &[Vec<u8>]) {
    for v in values {
        std::hint::black_box(compress_to_vec(codec, std::hint::black_box(v)));
    }
}

/// Measure one codec on a pre-generated corpus.
pub fn measure(id: CodecId, samples: &[Vec<u8>], reps: u32) -> DecodeRow {
    let codec = create(id).expect("valid codec");
    let compressed: Vec<Vec<u8>> =
        samples.iter().map(|s| compress_to_vec(codec.as_ref(), s)).collect();
    let input: usize = samples.iter().map(Vec::len).sum();
    let output: usize = compressed.iter().map(Vec::len).sum();

    let optimized_mb_s = rate(input, reps, || decode_all(codec.as_ref(), &compressed, samples));
    let reference_mb_s = rate(input, reps, || {
        for (c, s) in compressed.iter().zip(samples) {
            let out = reference::decompress(id, c, s.len()).expect("reference decode");
            std::hint::black_box(&out);
        }
    });
    DecodeRow { id, ratio: input as f64 / output.max(1) as f64, optimized_mb_s, reference_mb_s }
}

/// Checksum throughput over the corpus, MB/s, best of `reps` per side.
#[derive(Debug, Clone, Copy)]
pub struct CrcRates {
    /// `crc32` as shipped: the carry-less-multiply kernel where the CPU has
    /// it, the table kernel elsewhere.
    pub dispatched: f64,
    /// The four-lane table kernel alone (`Crc32::update_tables`).
    pub tables: f64,
    /// The byte-wise `reference::crc32`.
    pub bytewise: f64,
}

/// Measure [`CrcRates`]. The three sides take turns inside each rep, so
/// each side's best pass is taken over the whole span of the others: the
/// table kernel keeps the load ports busy and slows down while a neighbour
/// shares the core, which one byte-wise chain barely notices.
pub fn measure_crc(samples: &[Vec<u8>], reps: u32) -> CrcRates {
    let bytes: usize = samples.iter().map(Vec::len).sum();
    let over = |crc: fn(&[u8]) -> u32| {
        rate(bytes, 1, || {
            for s in samples {
                std::hint::black_box(crc(std::hint::black_box(s)));
            }
        })
    };
    let tables = |data: &[u8]| {
        let mut c = fanstore_compress::crc32::Crc32::new();
        c.update_tables(data);
        c.finish()
    };
    let mut best = CrcRates { dispatched: 0.0, tables: 0.0, bytewise: 0.0 };
    for _ in 0..reps.max(1) {
        best.dispatched = best.dispatched.max(over(fanstore_compress::crc32::crc32));
        best.tables = best.tables.max(over(tables));
        best.bytewise = best.bytewise.max(over(reference::crc32));
    }
    best
}

/// Whether this CPU runs `crc32`'s carry-less-multiply kernel.
fn has_clmul() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The codec points a write path can pick between: the `store` ceiling,
/// both ends of each LZ4 encoder, and the two cheap non-LZ4 families.
pub fn encode_codecs() -> Vec<CodecId> {
    vec![
        CodecId::new(CodecFamily::Store, 0),
        CodecId::new(CodecFamily::Lz4Fast, 1),
        CodecId::new(CodecFamily::Lz4Fast, 4),
        CodecId::new(CodecFamily::Lz4Hc, 1),
        CodecId::new(CodecFamily::Lz4Hc, 6),
        CodecId::new(CodecFamily::Lzf, 2),
        CodecId::new(CodecFamily::Huffman, 0),
    ]
}

/// `n` 16 KiB values cut from one generated EM tile at scattered offsets:
/// the values `fsbench`'s `durable_writes` hands the WAL.
pub fn em_values(n: usize) -> Vec<Vec<u8>> {
    const VALUE: usize = 16 << 10;
    let mut spec = DatasetSpec::scaled(DatasetKind::EmTif, 1, 0xE3);
    spec.file_size = 4 << 20;
    let tile = spec.generate(0);
    (0..n)
        .map(|i| (i * 1_000_003) % (tile.len() - VALUE))
        .map(|at| tile[at..at + VALUE].to_vec())
        .collect()
}

/// What a checkpoint `put` hands its codec over `generations` generations
/// of a 256 KiB model: every 64 KiB chunk, and from the second generation
/// on the chunk's delta against the generation before.
pub fn checkpoint_chunks(generations: u64) -> Vec<Vec<u8>> {
    const CHUNK: usize = 64 << 10;
    let states: Vec<Vec<u8>> =
        (1..=generations).map(|g| checkpoint_payload(0, g, CHUNK * 4)).collect();
    let full = states.iter().flat_map(|s| s.chunks(CHUNK).map(<[u8]>::to_vec));
    let deltas = states.windows(2).flat_map(|pair| {
        pair[0].chunks(CHUNK).zip(pair[1].chunks(CHUNK)).map(|(base, cur)| xdelta(base, cur))
    });
    full.chain(deltas).collect()
}

/// Measured encode and decode rates for one codec over a set of values.
#[derive(Debug, Clone)]
pub struct EncodeRow {
    /// Codec under test.
    pub id: CodecId,
    /// Compression ratio over the values (input/output).
    pub ratio: f64,
    /// Encode throughput, MB/s of plain input.
    pub encode_mb_s: f64,
    /// Decode throughput, MB/s of plain output.
    pub decode_mb_s: f64,
}

/// Measure every [`encode_codecs`] point on `values`, best of `reps`.
pub fn encode_rows(values: &[Vec<u8>], reps: u32) -> Vec<EncodeRow> {
    let input: usize = values.iter().map(Vec::len).sum();
    encode_codecs()
        .into_iter()
        .map(|id| {
            let codec = create(id).expect("valid codec");
            let encode_mb_s = rate(input, reps, || encode_all(codec.as_ref(), values));
            let compressed: Vec<Vec<u8>> =
                values.iter().map(|v| compress_to_vec(codec.as_ref(), v)).collect();
            let output: usize = compressed.iter().map(Vec::len).sum();
            let decode_mb_s = rate(input, reps, || decode_all(codec.as_ref(), &compressed, values));
            EncodeRow { id, ratio: input as f64 / output.max(1) as f64, encode_mb_s, decode_mb_s }
        })
        .collect()
}

/// `lz4fast-1` encode MB/s over `values` as `(fused, two-pass)`: the
/// shipping encoder against `reference::lz4_two_pass`. The two take turns
/// inside each rep, so a machine that slows down for a second slows both.
pub fn fused_vs_two_pass(values: &[Vec<u8>], reps: u32) -> (f64, f64) {
    let id = CodecId::new(CodecFamily::Lz4Fast, 1);
    let codec = create(id).expect("valid codec");
    let input: usize = values.iter().map(Vec::len).sum();
    let (mut fused, mut two_pass) = (0f64, 0f64);
    for _ in 0..reps.max(1) {
        fused = fused.max(rate(input, 1, || encode_all(codec.as_ref(), values)));
        two_pass = two_pass.max(rate(input, 1, || {
            for v in values {
                std::hint::black_box(reference::lz4_two_pass(id, std::hint::black_box(v)))
                    .expect("an lz4 id");
            }
        }));
    }
    (fused, two_pass)
}

fn encode_table(rows: &[EncodeRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                format!("{:.2}", r.ratio),
                fmt_f(r.encode_mb_s),
                fmt_f(r.decode_mb_s),
            ]
        })
        .collect();
    md_table(&["codec", "ratio", "encode MB/s", "decode MB/s"], &table)
}

/// The write-path half of the report: what each codec point costs the
/// caller that waits for the encoder.
fn write_path_section(quick: bool, reps: u32) -> String {
    let values = em_values(if quick { 16 } else { 256 });
    let chunks = checkpoint_chunks(if quick { 2 } else { 4 });
    let (fused, two_pass) = fused_vs_two_pass(&values, reps);
    format!(
        "### Write path — what the encoder costs the writer that waits for it (measured)\n\n\
         Encode and decode MB/s of plain bytes, best of {reps} passes, for the codec\n\
         points a write path can choose between (Eq. 3 read for writes: the WAL flush\n\
         and the checkpoint `put` both compress inline in the call that returns to\n\
         the writer). First {} 16 KiB slices of a generated EM tile — the values\n\
         `fsbench`'s `durable_writes` flushes; the WAL's default is `lz4fast-1`, prep's\n\
         is `lz4hc`:\n\n{}\n\
         `lz4fast-1` writes its block while it parses: {} MB/s against {} MB/s for the\n\
         retained collect-then-emit form (`reference::lz4_two_pass`, the parsers and\n\
         emitter as they were), {:.2}x; CI gates >= 1.4x.\n\n\
         Then {} chunks a checkpoint `put` hands its codec (64 KiB chunks of a\n\
         256 KiB model over successive generations, and their deltas against the\n\
         generation before, which are mostly zeros):\n\n{}",
        values.len(),
        encode_table(&encode_rows(&values, reps)),
        fmt_f(fused),
        fmt_f(two_pass),
        fused / two_pass.max(f64::MIN_POSITIVE),
        chunks.len(),
        encode_table(&encode_rows(&chunks, reps)),
    )
}

/// Generate the decode_throughput report section.
pub fn run(n_per_kind: usize, reps: u32) -> String {
    let samples = corpus(n_per_kind);
    let rows: Vec<DecodeRow> =
        codecs_under_test().into_iter().map(|id| measure(id, &samples, reps)).collect();
    let crc = measure_crc(&samples, reps);
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
    let versus = |rate: f64| format!("{:.2}x", rate / crc.bytewise.max(f64::MIN_POSITIVE));
    table.push(vec![
        "crc32 tables (not a codec)".to_string(),
        "-".to_string(),
        fmt_f(crc.bytewise),
        fmt_f(crc.tables),
        versus(crc.tables),
    ]);
    table.push(vec![
        format!("crc32 {} (not a codec)", if has_clmul() { "clmul" } else { "dispatched" }),
        "-".to_string(),
        fmt_f(crc.bytewise),
        fmt_f(crc.dispatched),
        versus(crc.dispatched),
    ]);
    format!(
        "## decode_throughput — word-wide decoders vs byte-wise reference (measured)\n\n\
         Decode MB/s of plain output over a mixed datagen corpus ({n_per_kind} files\n\
         from each of the six dataset families, best of {reps} passes). `optimized`\n\
         is the shipping hot path (every LZ decoder writes through the reserve-once\n\
         `copy::Cursor`: 16-byte literal stores, 8/16-byte wild match copies and\n\
         pattern-doubled overlaps; the two LZ4 codecs add its shortcut sequence\n\
         path); `reference` is the retained byte-wise decoder the differential\n\
         proptests pin it against. Families with no byte-wise twin dispatch\n\
         identically on both sides (speedup ~1.0x, the control group). The last\n\
         two rows are the checksum every remote byte passes before decode, MB/s\n\
         of input over the same corpus against the byte-wise `reference::crc32`:\n\
         the four-lane table kernel (four slicing-by-16 chains, joined by\n\
         `x^(8·lane)`), which runs on CPUs without\n\
         carry-less multiply, and `crc32` as dispatched, which folds with\n\
         `pclmulqdq` where the CPU has it (the `clmul` row).\n\n{}\n{}",
        md_table(&["codec", "ratio", "reference MB/s", "optimized MB/s", "speedup"], &table),
        write_path_section(n_per_kind == 1, reps),
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
    /// The CRC ratio sits above what one slicing-by-16 chain reached
    /// (≈ 5.3x). Where the CPU has carry-less multiply, `crc32` must also
    /// stay well ahead of the table kernel it would otherwise run. The 25
    /// turns span a few hundred milliseconds, longer than a neighbour's
    /// share of the core usually lasts (see [`measure_crc`]).
    #[test]
    fn lz4hc_at_least_2x_and_crc32_at_least_8x_reference() {
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
        let crc = measure_crc(&samples, 25);
        assert!(
            crc.dispatched >= 8.0 * crc.bytewise,
            "crc32 must run >= 8x reference::crc32: {:.0} vs {:.0} MB/s",
            crc.dispatched,
            crc.bytewise
        );
        if has_clmul() {
            assert!(
                crc.dispatched >= 2.5 * crc.tables,
                "with pclmulqdq, crc32 must run >= 2.5x the table kernel: {:.0} vs {:.0} MB/s",
                crc.dispatched,
                crc.tables
            );
        }
    }

    #[test]
    fn write_path_rows_render_and_order() {
        let rows = encode_rows(&em_values(4), 1);
        let ratio = |family, level| {
            rows.iter().find(|r| r.id == CodecId::new(family, level)).expect("a row").ratio
        };
        assert_eq!(ratio(CodecFamily::Store, 0), 1.0);
        assert!(ratio(CodecFamily::Lz4Hc, 6) >= ratio(CodecFamily::Lz4Fast, 1));
        assert!(ratio(CodecFamily::Lz4Fast, 1) > ratio(CodecFamily::Lz4Fast, 4));
        let deltas = encode_rows(&checkpoint_chunks(2), 1);
        assert!(deltas.iter().all(|r| r.encode_mb_s > 0.0 && r.decode_mb_s > 0.0));
        assert!(run(1, 1).contains("Write path"));
    }

    /// The flush encoder against the form it replaced, as a ratio on this
    /// machine: parsing into a list and emitting afterwards must stay the
    /// slower way to produce the same bytes.
    #[test]
    fn lz4fast_1_encodes_at_least_1_4x_the_two_pass_form() {
        if cfg!(debug_assertions) {
            return; // as above: machine-code quality, release builds only
        }
        let (fused, two_pass) = fused_vs_two_pass(&em_values(64), 9);
        assert!(
            fused >= 1.4 * two_pass,
            "lz4fast-1 must encode >= 1.4x reference::lz4_two_pass: {fused:.0} vs {two_pass:.0} MB/s"
        );
    }

    /// The cursor decoders against their byte-wise originals, as ratios
    /// on this machine: lz4fast-1, lzf-2 and lzsse8-2 must each decode at
    /// least 2x their `reference` twin. (lzsse8 is not gated against
    /// lz4hc: their ratio swings across 1.0 from run to run on a shared
    /// 2-vCPU host.)
    #[test]
    fn lz4fast_and_lzf_at_least_2x_reference() {
        if cfg!(debug_assertions) {
            // The 2x gate compares machine code quality; it only means
            // something on optimized builds (CI runs this under
            // --release).
            return;
        }
        let samples = corpus(2);
        for (family, level) in
            [(CodecFamily::Lz4Fast, 1), (CodecFamily::Lzf, 2), (CodecFamily::Lzsse8, 2)]
        {
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
