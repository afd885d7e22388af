//! # fanstore-compress
//!
//! Lossless compressor suite for the FanStore reproduction.
//!
//! The FanStore paper evaluates ~180 compressor/option configurations from
//! [lzbench](https://github.com/inikep/lzbench) and selects per-dataset
//! compressors that trade compression ratio against decompression cost.
//! This crate re-implements, from scratch, a family of codecs that occupy
//! the same design points:
//!
//! | family | analogue of | design point |
//! |---|---|---|
//! | [`store`] | `memcpy` | baseline, ratio 1.0 |
//! | [`rle`] | RLE | trivial, fast |
//! | [`lzf`] | LibLZF | tiny LZ, very fast decode |
//! | [`lz4`] (fast) | `lz4fast`/`lz4` | greedy byte-LZ, fastest decode |
//! | [`lz4`] (hc) | `lz4hc` | hash-chain + lazy parse, same fast decoder |
//! | [`lzsse`] | `lzsse8` | 8-byte-granular LZ, branch-light decode |
//! | [`huffman`] | entropy-only | order-0 canonical Huffman |
//! | [`zling`] | `zling`/DEFLATE | LZ + Huffman, medium ratio/medium decode |
//! | [`brotli_lite`] | `brotli` | big-window LZ + context Huffman |
//! | [`lzma_lite`] | `lzma` | LZ + adaptive binary range coder, max ratio |
//! | [`lzma_lite`] (xz) | `xz` | lzma payload + CRC container |
//!
//! Codec *names* indicate the emulated design point; the formats are not
//! binary-compatible with the originals (see DESIGN.md §4.8).
//!
//! All codecs implement the [`Codec`] trait and are registered in
//! [`registry`] under a stable [`CodecId`] used by the FanStore pack format
//! (the 2-byte "compressor" field of Table I in the paper).
//!
//! The lzbench-style harness that sweeps the configuration space over
//! sample files (the raw material for the paper's Figure 7 and Table IV)
//! lives with its one caller, `fanstore_bench::evaluate`.

pub mod bitio;
pub mod brotli_lite;
pub mod bzip_lite;
pub mod copy;
pub mod crc32;
pub mod filters;
pub mod fse;
pub mod huffman;
pub mod lossy;
pub mod lz4;
pub mod lzf;
pub mod lzma_lite;
pub mod lzsse;
pub mod matchfinder;
pub mod progressive;
pub mod rangecoder;
pub mod reference;
pub mod registry;
pub mod rle;
pub mod store;
pub mod tokens;
pub mod varint;
pub mod zling;
pub mod zstd_lite;

use std::fmt;

/// Stable 2-byte codec identifier, stored in the pack format.
///
/// Layout: high byte = codec family, low byte = option level. This matches
/// the paper's 2-byte "compressor" field (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodecId(pub u16);

impl CodecId {
    /// Construct from a family and a level.
    pub const fn new(family: CodecFamily, level: u8) -> Self {
        CodecId(((family as u16) << 8) | level as u16)
    }

    /// The codec family (high byte).
    pub fn family(self) -> Option<CodecFamily> {
        CodecFamily::from_u8((self.0 >> 8) as u8)
    }

    /// The option level (low byte).
    pub fn level(self) -> u8 {
        (self.0 & 0xff) as u8
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.family() {
            Some(fam) => write!(f, "{}-{}", fam.name(), self.level()),
            None => write!(f, "codec#{:04x}", self.0),
        }
    }
}

/// Codec families implemented by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum CodecFamily {
    /// `memcpy` baseline: no transformation.
    Store = 0,
    /// Run-length encoding.
    Rle = 1,
    /// LibLZF-style tiny LZ.
    Lzf = 2,
    /// LZ4-style greedy LZ (level = acceleration).
    Lz4Fast = 3,
    /// LZ4-HC-style hash-chain lazy LZ (level = search depth class).
    Lz4Hc = 4,
    /// LZSSE8-style 8-byte-granular LZ.
    Lzsse8 = 5,
    /// Order-0 canonical Huffman.
    Huffman = 6,
    /// DEFLATE-like LZ + Huffman.
    Zling = 7,
    /// Big-window LZ + context Huffman.
    BrotliLite = 8,
    /// LZ + adaptive binary range coder.
    LzmaLite = 9,
    /// LzmaLite payload in a CRC-checked container.
    Xz = 10,
    /// LZ + FSE (tANS) entropy coding.
    ZstdLite = 11,
    /// Byte-shuffle filter + Lz4Hc (level = element width).
    ShuffleLz = 12,
    /// Delta filter + Lz4Hc (level = element width).
    DeltaLz = 13,
    /// Byte-shuffle filter + ZstdLite (level = element width).
    ShuffleZstd = 14,
    /// Burrows-Wheeler block sorting + MTF + RLE + Huffman.
    BzipLite = 15,
}

impl CodecFamily {
    /// All families, in id order.
    pub const ALL: [CodecFamily; 16] = [
        CodecFamily::Store,
        CodecFamily::Rle,
        CodecFamily::Lzf,
        CodecFamily::Lz4Fast,
        CodecFamily::Lz4Hc,
        CodecFamily::Lzsse8,
        CodecFamily::Huffman,
        CodecFamily::Zling,
        CodecFamily::BrotliLite,
        CodecFamily::LzmaLite,
        CodecFamily::Xz,
        CodecFamily::ZstdLite,
        CodecFamily::ShuffleLz,
        CodecFamily::DeltaLz,
        CodecFamily::ShuffleZstd,
        CodecFamily::BzipLite,
    ];

    /// Parse from the high byte of a [`CodecId`].
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }

    /// Short lowercase name, as it appears in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            CodecFamily::Store => "store",
            CodecFamily::Rle => "rle",
            CodecFamily::Lzf => "lzf",
            CodecFamily::Lz4Fast => "lz4fast",
            CodecFamily::Lz4Hc => "lz4hc",
            CodecFamily::Lzsse8 => "lzsse8",
            CodecFamily::Huffman => "huffman",
            CodecFamily::Zling => "zling",
            CodecFamily::BrotliLite => "brotli",
            CodecFamily::LzmaLite => "lzma",
            CodecFamily::Xz => "xz",
            CodecFamily::ZstdLite => "zstd",
            CodecFamily::ShuffleLz => "shuffle-lz",
            CodecFamily::DeltaLz => "delta-lz",
            CodecFamily::ShuffleZstd => "shuffle-zstd",
            CodecFamily::BzipLite => "bzip",
        }
    }
}

/// Errors produced when decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the declared payload was complete.
    Truncated,
    /// A structural invariant of the format was violated.
    Corrupt(&'static str),
    /// Output did not match the expected decompressed length.
    LengthMismatch { expected: usize, actual: usize },
    /// Integrity check (CRC) failed.
    ChecksumMismatch,
    /// The codec id is not known to the registry.
    UnknownCodec(CodecId),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::Corrupt(why) => write!(f, "compressed stream corrupt: {why}"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "decompressed length mismatch: expected {expected}, got {actual}")
            }
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A lossless compressor configuration.
///
/// Implementations are cheap to construct and stateless across calls, so a
/// single instance may be shared between threads.
pub trait Codec: Send + Sync {
    /// Stable identifier stored in the pack format.
    fn id(&self) -> CodecId;

    /// Human-readable name, e.g. `"lz4hc-9"`.
    fn name(&self) -> String {
        self.id().to_string()
    }

    /// Compress `input`, appending to `out`. Never fails; worst case the
    /// output is slightly larger than the input (each format has a literal
    /// escape path).
    fn compress(&self, input: &[u8], out: &mut Vec<u8>);

    /// Upper bound on the compressed size of `input_len` input bytes.
    ///
    /// Used by [`compress_to_vec`] to reserve the output buffer once, so
    /// incompressible inputs never reallocate mid-compress. The default
    /// covers every in-tree format's literal escape path (the costliest is
    /// Huffman-coded incompressible data at ≤ 9 bits/byte plus table
    /// headers); codecs with heavier worst-case framing must override.
    fn max_compressed_len(&self, input_len: usize) -> usize {
        input_len + input_len / 8 + 1024
    }

    /// Decompress `input`, appending exactly `expected_len` bytes to `out`.
    ///
    /// `expected_len` is the original file size recorded by the pack format;
    /// codecs use it to size buffers and to validate the stream.
    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError>;

    /// Decompress a stream of `expected_len` bytes, appending only its
    /// first `stop` of them to `out` (`stop` is clamped to
    /// `expected_len`): what a byte-range read of the front of a chunk
    /// needs. Damage in the part of the stream decoded is the error
    /// [`Codec::decompress`] gives; damage past it may go unseen.
    ///
    /// The default decodes the whole stream and truncates. The LZ4 family
    /// overrides it to stop decoding at the first sequence that reaches
    /// `stop`.
    fn decompress_prefix(
        &self,
        input: &[u8],
        expected_len: usize,
        stop: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let start = out.len();
        self.decompress(input, expected_len, out)?;
        out.truncate(start + stop.min(expected_len));
        Ok(())
    }
}

/// Convenience: compress into a fresh buffer sized to the codec's
/// worst-case bound, so even incompressible inputs write without
/// reallocating.
pub fn compress_to_vec(codec: &dyn Codec, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(codec.max_compressed_len(input.len()));
    codec.compress(input, &mut out);
    out
}

/// Convenience: decompress into a fresh buffer, allocated once: the
/// word-wide decoders reserve [`copy::WILD_SLACK`] bytes behind the output,
/// and a buffer of exactly `expected_len` would be regrown for them.
pub fn decompress_to_vec(
    codec: &dyn Codec,
    input: &[u8],
    expected_len: usize,
) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(expected_len.saturating_add(copy::WILD_SLACK));
    codec.decompress(input, expected_len, &mut out)?;
    if out.len() != expected_len {
        return Err(CodecError::LengthMismatch { expected: expected_len, actual: out.len() });
    }
    Ok(out)
}

/// Decompress into a caller-provided buffer, recycling its capacity.
///
/// The buffer is cleared (not shrunk) first, then filled with exactly
/// `expected_len` bytes. This is the allocation-free sibling of
/// [`decompress_to_vec`]: steady-state read paths pull a scratch buffer
/// from a pool, decode into it here, and return it afterwards.
pub fn decompress_into(
    codec: &dyn Codec,
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    out.clear();
    decompress_prefix_into(codec, input, expected_len, expected_len, out)
}

/// Append the first `stop` bytes of the `expected_len` the stream decodes
/// to behind what `out` holds ([`Codec::decompress_prefix`]). On success
/// exactly `stop.min(expected_len)` bytes were appended; the reservation
/// is still the whole `expected_len`, which the last decoded sequence may
/// reach.
pub fn decompress_prefix_into(
    codec: &dyn Codec,
    input: &[u8],
    expected_len: usize,
    stop: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let (stop, start) = (stop.min(expected_len), out.len());
    out.reserve(expected_len.saturating_add(copy::WILD_SLACK));
    codec.decompress_prefix(input, expected_len, stop, out)?;
    if out.len() - start != stop {
        let actual = out.len() - start;
        out.truncate(start);
        return Err(CodecError::LengthMismatch { expected: expected_len, actual });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_id_roundtrip() {
        let id = CodecId::new(CodecFamily::Lz4Hc, 9);
        assert_eq!(id.family(), Some(CodecFamily::Lz4Hc));
        assert_eq!(id.level(), 9);
        assert_eq!(id.to_string(), "lz4hc-9");
    }

    #[test]
    fn codec_family_from_u8_roundtrip() {
        for fam in CodecFamily::ALL {
            assert_eq!(CodecFamily::from_u8(fam as u8), Some(fam));
        }
        assert_eq!(CodecFamily::from_u8(200), None);
    }

    #[test]
    fn unknown_codec_display() {
        let id = CodecId(0xff07);
        assert_eq!(id.family(), None);
        assert_eq!(id.to_string(), "codec#ff07");
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::LengthMismatch { expected: 10, actual: 7 };
        assert!(e.to_string().contains("expected 10"));
        assert!(CodecError::Truncated.to_string().contains("truncated"));
    }

    /// Adversarial corpora for the worst-case-bound check: incompressible
    /// noise, pathological run structure, and a plain ramp.
    fn adversarial_inputs(n: usize) -> Vec<Vec<u8>> {
        let mut x = 0x2545F491_4F6CDD1Du64;
        let noise: Vec<u8> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let alternating: Vec<u8> = (0..n).map(|i| if i % 2 == 0 { 0x00 } else { 0xFF }).collect();
        let ramp: Vec<u8> = (0..n).map(|i| i as u8).collect();
        vec![noise, alternating, ramp, vec![0u8; n], Vec::new()]
    }

    #[test]
    fn compress_to_vec_never_reallocates() {
        use crate::registry::create;
        for fam in CodecFamily::ALL {
            let level = match fam {
                CodecFamily::Store | CodecFamily::Rle | CodecFamily::Huffman => 0,
                CodecFamily::ShuffleLz | CodecFamily::ShuffleZstd => 2,
                CodecFamily::DeltaLz => 4,
                _ => 2,
            };
            let codec = create(CodecId::new(fam, level)).unwrap();
            for input in adversarial_inputs(8192) {
                let out = compress_to_vec(codec.as_ref(), &input);
                assert!(
                    out.len() <= codec.max_compressed_len(input.len()),
                    "{}: {} bytes compressed to {} > bound {}",
                    codec.name(),
                    input.len(),
                    out.len(),
                    codec.max_compressed_len(input.len())
                );
            }
        }
    }

    #[test]
    fn decompress_into_recycles_capacity() {
        let codec = crate::lz4::Lz4Fast::new(1);
        let data = b"decompress_into must reuse the scratch allocation ".repeat(30);
        let c = compress_to_vec(&codec, &data);
        let mut scratch = Vec::with_capacity(data.len() + 64);
        let cap_ptr = scratch.as_ptr();
        for _ in 0..4 {
            decompress_into(&codec, &c, data.len(), &mut scratch).unwrap();
            assert_eq!(scratch, data);
        }
        assert_eq!(scratch.as_ptr(), cap_ptr, "no reallocation across reuse");
    }

    #[test]
    fn decompress_into_clears_stale_content() {
        let codec = crate::lzf::Lzf::new(2);
        let data = b"fresh bytes".repeat(10);
        let c = compress_to_vec(&codec, &data);
        let mut scratch = vec![0xAAu8; 4096];
        decompress_into(&codec, &c, data.len(), &mut scratch).unwrap();
        assert_eq!(scratch, data);
    }

    #[test]
    fn decompress_into_propagates_errors() {
        let codec = crate::lz4::Lz4Fast::new(1);
        let data = b"error propagation".repeat(12);
        let c = compress_to_vec(&codec, &data);
        let mut scratch = Vec::new();
        assert!(decompress_into(&codec, &c[..c.len() / 2], data.len(), &mut scratch).is_err());
        assert!(decompress_into(&codec, &c, data.len() + 1, &mut scratch).is_err());
    }
}
