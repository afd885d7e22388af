//! `zling`-class codec: DEFLATE-style LZ + canonical Huffman.
//!
//! One Huffman table covers literals (0..=255), match-length slots
//! (256..=319) and an end-of-block symbol (320); a second table covers 64
//! distance slots. Slot extra bits are written verbatim after each symbol,
//! exactly the DEFLATE arrangement (with LZMA-style slots instead of the
//! DEFLATE base tables, which changes constants but not the design point:
//! medium ratio, table-driven medium-cost decode).

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{build_lengths, read_lengths, write_lengths, HuffDecoder, HuffEncoder};
use crate::matchfinder::{lazy_seqs, MatchConfig};
use crate::tokens::{overlap_copy, slots, Seq};
use crate::{Codec, CodecError, CodecFamily, CodecId};

const MIN_MATCH: usize = 4;
const LIT_SYMS: usize = 256;
const LEN_SLOTS: usize = 64;
const EOB: usize = LIT_SYMS + LEN_SLOTS; // 320
const MAIN_ALPHABET: usize = EOB + 1; // 321
const DIST_ALPHABET: usize = slots::SLOT_COUNT;

/// `zling`-class codec. Levels `0..=9` control match-search effort.
#[derive(Debug, Clone, Copy)]
pub struct Zling {
    level: u8,
}

impl Zling {
    /// Create with compression level `0..=9`.
    pub fn new(level: u8) -> Self {
        Zling { level: level.min(9) }
    }

    fn config(&self) -> MatchConfig {
        MatchConfig {
            window_log: 15,
            min_match: MIN_MATCH,
            max_match: usize::MAX,
            max_chain: 8u32 << u32::from(self.level),
            nice_len: 32 << u32::from(self.level),
            accel: 1,
        }
    }
}

/// Shared emitter for zling/brotli-style streams: histogram pass + encode
/// pass over the same sequences.
pub(crate) fn emit_lz_huffman(
    input: &[u8],
    seqs: &[Seq],
    out: &mut Vec<u8>,
    // Context count for literal/len tables: 1 for zling.
    nctx: usize,
    ctx_shift: u32,
) {
    // Pass 1: histograms.
    let mut main_freqs = vec![vec![0u64; MAIN_ALPHABET]; nctx];
    let mut dist_freqs = vec![0u64; DIST_ALPHABET];
    let mut prev_byte = 0u8;
    for seq in seqs {
        for &b in &input[seq.lit_start..seq.lit_start + seq.lit_len] {
            let ctx = (prev_byte >> ctx_shift) as usize % nctx;
            main_freqs[ctx][b as usize] += 1;
            prev_byte = b;
        }
        if seq.match_len > 0 {
            let ctx = (prev_byte >> ctx_shift) as usize % nctx;
            let lslot = slots::slot_of((seq.match_len - MIN_MATCH) as u32) as usize;
            main_freqs[ctx][LIT_SYMS + lslot] += 1;
            dist_freqs[slots::slot_of((seq.dist - 1) as u32) as usize] += 1;
            // The decoder's context after a match is the last copied byte.
            let end = seq.lit_start + seq.lit_len + seq.match_len;
            prev_byte = input[end - 1];
        }
    }
    let last_ctx = (prev_byte >> ctx_shift) as usize % nctx;
    main_freqs[last_ctx][EOB] += 1;

    // Headers: per-context main table + dist table.
    let mut encoders = Vec::with_capacity(nctx);
    for freqs in &main_freqs {
        let lengths = build_lengths(freqs, 15);
        write_lengths(out, &lengths);
        encoders.push(HuffEncoder::from_lengths(&lengths));
    }
    let dist_lengths = build_lengths(&dist_freqs, 15);
    write_lengths(out, &dist_lengths);
    let dist_enc = HuffEncoder::from_lengths(&dist_lengths);

    // Pass 2: encode.
    let mut w = BitWriter::with_capacity(input.len() / 2);
    let mut prev_byte = 0u8;
    for seq in seqs {
        for &b in &input[seq.lit_start..seq.lit_start + seq.lit_len] {
            let ctx = (prev_byte >> ctx_shift) as usize % nctx;
            encoders[ctx].encode(&mut w, b as usize);
            prev_byte = b;
        }
        if seq.match_len > 0 {
            let ctx = (prev_byte >> ctx_shift) as usize % nctx;
            let lval = (seq.match_len - MIN_MATCH) as u32;
            let lslot = slots::slot_of(lval);
            encoders[ctx].encode(&mut w, LIT_SYMS + lslot as usize);
            w.write(u64::from(slots::extra_value(lval)), slots::extra_bits(lslot));
            let dval = (seq.dist - 1) as u32;
            let dslot = slots::slot_of(dval);
            dist_enc.encode(&mut w, dslot as usize);
            w.write(u64::from(slots::extra_value(dval)), slots::extra_bits(dslot));
            let end = seq.lit_start + seq.lit_len + seq.match_len;
            prev_byte = input[end - 1];
        }
    }
    let ctx = (prev_byte >> ctx_shift) as usize % nctx;
    encoders[ctx].encode(&mut w, EOB);
    out.extend_from_slice(&w.finish());
}

/// Shared decoder for zling/brotli-style streams.
pub(crate) fn decode_lz_huffman(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
    nctx: usize,
    ctx_shift: u32,
) -> Result<(), CodecError> {
    let base = out.len();
    let target = base + expected_len;
    let mut pos = 0usize;
    let mut decoders = Vec::with_capacity(nctx);
    for _ in 0..nctx {
        let lengths = read_lengths(input, &mut pos, MAIN_ALPHABET)?;
        decoders.push(HuffDecoder::from_lengths(&lengths)?);
    }
    let dist_lengths = read_lengths(input, &mut pos, DIST_ALPHABET)?;
    let dist_dec = HuffDecoder::from_lengths(&dist_lengths)?;

    let mut r = BitReader::new(&input[pos..]);
    let mut prev_byte = 0u8;
    out.reserve(expected_len);
    loop {
        let ctx = (prev_byte >> ctx_shift) as usize % nctx;
        let sym = decoders[ctx].decode(&mut r)? as usize;
        if sym < LIT_SYMS {
            if out.len() >= target {
                return Err(CodecError::Corrupt("zling literal exceeds expected length"));
            }
            out.push(sym as u8);
            prev_byte = sym as u8;
        } else if sym == EOB {
            break;
        } else {
            let lslot = (sym - LIT_SYMS) as u32;
            let lextra = r.read(slots::extra_bits(lslot))? as u32;
            let len = (slots::base(lslot) + lextra) as usize + MIN_MATCH;
            let dslot = dist_dec.decode(&mut r)? as u32;
            if dslot as usize >= DIST_ALPHABET {
                return Err(CodecError::Corrupt("zling bad distance slot"));
            }
            let dextra = r.read(slots::extra_bits(dslot))? as u32;
            let dist = (slots::base(dslot) + dextra) as usize + 1;
            if dist > out.len() - base {
                return Err(CodecError::Corrupt("zling distance out of range"));
            }
            if out.len() + len > target {
                return Err(CodecError::Corrupt("zling match exceeds expected length"));
            }
            overlap_copy(out, dist, len);
            prev_byte = *out.last().unwrap();
        }
    }
    if out.len() != target {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual: out.len() - base,
        });
    }
    Ok(())
}

impl Codec for Zling {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::Zling, self.level)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        if input.is_empty() {
            return;
        }
        let seqs = lazy_seqs(input, &self.config());
        emit_lz_huffman(input, &seqs, out, 1, 6);
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if expected_len == 0 {
            return Ok(());
        }
        decode_lz_huffman(input, expected_len, out, 1, 6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_to_vec, decompress_to_vec};

    fn roundtrip(level: u8, data: &[u8]) -> usize {
        let codec = Zling::new(level);
        let c = compress_to_vec(&codec, data);
        assert_eq!(
            decompress_to_vec(&codec, &c, data.len()).unwrap(),
            data,
            "zling-{level} {} bytes",
            data.len()
        );
        c.len()
    }

    #[test]
    fn roundtrip_text_all_levels() {
        let data = b"huffman coded lz sequences with slot based lengths and distances ".repeat(40);
        for level in 0..=4 {
            roundtrip(level, &data);
        }
    }

    #[test]
    fn roundtrip_empty_tiny() {
        for n in 0..10usize {
            roundtrip(2, &vec![b'k'; n]);
        }
    }

    #[test]
    fn roundtrip_binary_patterns() {
        let mut data = Vec::new();
        for i in 0u32..4000 {
            data.extend_from_slice(&(i / 7).to_le_bytes());
        }
        roundtrip(3, &data);
    }

    #[test]
    fn beats_plain_lz4_on_text() {
        // Needs enough input to amortise zling's ~200-byte Huffman header.
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(
                format!("line {i}: english text has lz redundancy and a skewed histogram; ")
                    .as_bytes(),
            );
        }
        let zl = roundtrip(4, &data);
        let lz = compress_to_vec(&crate::lz4::Lz4Hc::new(12), &data).len();
        assert!(zl < lz, "zling {zl} should beat lz4hc {lz}");
    }

    #[test]
    fn roundtrip_incompressible() {
        let mut x = 0x9E3779B9u32;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 16) as u8
            })
            .collect();
        roundtrip(2, &data);
    }

    #[test]
    fn truncated_rejected() {
        let data = b"truncated zling streams must error not panic".repeat(20);
        let c = compress_to_vec(&Zling::new(2), &data);
        for cut in [10, 170, c.len() - 1] {
            let mut out = Vec::new();
            assert!(Zling::new(2)
                .decompress(&c[..cut.min(c.len() - 1)], data.len(), &mut out)
                .is_err());
        }
    }

    #[test]
    fn bitflip_is_detected_or_wrong_length() {
        let data = b"single bit corruption should never produce a silent wrong answer of \
                     the right length without erroring"
            .repeat(10);
        let mut c = compress_to_vec(&Zling::new(2), &data);
        let mid = c.len() / 2;
        c[mid] ^= 0x40;
        // Either an error or output differing from the original is fine;
        // what must not happen is a panic.
        if let Ok(out) = decompress_to_vec(&Zling::new(2), &c, data.len()) {
            assert_ne!(out, data);
        }
    }
}
