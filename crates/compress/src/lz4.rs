//! LZ4-style block codec.
//!
//! Implements the LZ4 block format: each sequence is a token byte whose
//! high nibble is the literal length (15 = extended with 255-run bytes),
//! the literals, a 2-byte little-endian offset, and the low nibble match
//! length minus 4 (15 = extended). The final sequence has literals only.
//!
//! Two compressors share one emitter and one decoder. Neither builds a
//! parse list: the match finder hands over each sequence as it is decided
//! and it is written into output capacity reserved once, up front. The
//! collect-then-emit form they replaced, parsers included, is kept as
//! [`crate::reference::lz4_two_pass`], the oracle `tests/prop_encode.rs`
//! pins the output against byte for byte.
//!
//! * [`Lz4Fast`] — greedy single-probe search; the `level` is the LZ4
//!   acceleration factor (higher = faster, worse ratio).
//! * [`Lz4Hc`] — hash-chain lazy search; the `level` (1..=12) maps to
//!   chain depth, like the real LZ4-HC compression levels.

use crate::copy;
use crate::matchfinder::{greedy_parse, lazy_parse, MatchConfig};
use crate::tokens::Seq;
use crate::{Codec, CodecError, CodecFamily, CodecId};

const MIN_MATCH: usize = 4;
const MAX_DIST: usize = 65535;

/// Append one sequence to an LZ4 block: token, literal-length extension,
/// literals, then offset and match-length extension unless this is the
/// block's final, literals-only sequence. Everything a sequence needs is
/// in the sequence, which is what lets the encoders write the block while
/// the parse is still running.
#[inline]
fn emit_seq(input: &[u8], seq: Seq, out: &mut Vec<u8>) {
    let write_len_ext = |out: &mut Vec<u8>, mut v: usize| {
        while v >= 255 {
            out.push(255);
            v -= 255;
        }
        out.push(v as u8);
    };

    let lit_nibble = seq.lit_len.min(15);
    let match_code = seq.match_len.saturating_sub(MIN_MATCH);
    let match_nibble = match_code.min(15);
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        write_len_ext(out, seq.lit_len - 15);
    }
    out.extend_from_slice(&input[seq.lit_start..seq.lit_start + seq.lit_len]);
    if seq.match_len > 0 {
        debug_assert!(seq.match_len >= MIN_MATCH && seq.dist >= 1 && seq.dist <= MAX_DIST);
        out.extend_from_slice(&(seq.dist as u16).to_le_bytes());
        if match_nibble == 15 {
            write_len_ext(out, match_code - 15);
        }
    }
}

/// Output the shortcut needs ahead of it: 16 stored literal bytes plus 18
/// stored match bytes, so neither store can cross `expected_len`.
const SHORTCUT_OUTPUT: usize = 16 + 18;
/// Input the shortcut needs after the token: the 16 literal bytes it
/// loads, and the offset behind at most 14 real literals.
const SHORTCUT_INPUT: usize = 16 + 2;
/// Longest match the token nibble encodes without extension bytes.
const SHORT_MATCH: usize = 14 + MIN_MATCH;

/// Decode an LZ4 block, appending to `out` until `expected_len` bytes have
/// been produced.
///
/// Hot loop: the output is a [`copy::Cursor`] over capacity reserved once.
/// A sequence whose literal length fits the token nibble, with
/// [`SHORTCUT_OUTPUT`] output and [`SHORTCUT_INPUT`] input bytes still
/// ahead, copies its literals as one 16-byte store and skips every
/// per-run check (none can fail: the run is shorter than what remains on
/// both sides). A match whose length fits the nibble, at distance >= 8, is
/// three fixed stores. Everything else — long runs, near offsets, the last
/// few sequences of the block — takes the exactly-bounded path, which
/// makes the checks of the byte-wise original,
/// [`crate::reference::lz4_block`], in the same order; the differential
/// suite pins the two byte-for-byte and error-for-error.
fn decode_block(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let mut cur = copy::Cursor::new(out, expected_len);
    let mut i = 0usize;

    let read_len_ext = |input: &[u8], i: &mut usize| -> Result<usize, CodecError> {
        let mut total = 0usize;
        loop {
            let &b = input.get(*i).ok_or(CodecError::Truncated)?;
            *i += 1;
            total += b as usize;
            if b != 255 {
                return Ok(total);
            }
        }
    };

    while i < input.len() {
        let token = input[i];
        i += 1;
        let mut lit_len = (token >> 4) as usize;
        let shortcut = if lit_len < 15 && cur.remaining() >= SHORTCUT_OUTPUT {
            input[i..].first_chunk::<SHORTCUT_INPUT>()
        } else {
            None
        };
        let dist = if let Some(window) = shortcut {
            cur.wild_literals(window.first_chunk().expect("16 of 18 bytes"), lit_len);
            i += lit_len + 2;
            u16::from_le_bytes([window[lit_len], window[lit_len + 1]]) as usize
        } else {
            if lit_len == 15 {
                lit_len += read_len_ext(input, &mut i)?;
            }
            if i + lit_len > input.len() {
                return Err(CodecError::Truncated);
            }
            if lit_len > cur.remaining() {
                return Err(CodecError::Corrupt("lz4 literals exceed expected length"));
            }
            cur.literals(&input[i..i + lit_len]);
            i += lit_len;
            if cur.remaining() == 0 && i == input.len() {
                return Ok(()); // final literals-only sequence
            }
            // Match part.
            if i + 2 > input.len() {
                return Err(CodecError::Truncated);
            }
            let offset = u16::from_le_bytes([input[i], input[i + 1]]);
            i += 2;
            offset as usize
        };
        if dist == 0 || dist > cur.produced() {
            return Err(CodecError::Corrupt("lz4 offset out of range"));
        }
        let mut match_len = (token & 0x0f) as usize;
        if match_len < 15 && dist >= 8 && cur.remaining() >= SHORT_MATCH {
            cur.wild_match(dist, match_len + MIN_MATCH);
            continue;
        }
        if match_len == 15 {
            match_len += read_len_ext(input, &mut i)?;
        }
        match_len += MIN_MATCH;
        if match_len > cur.remaining() {
            return Err(CodecError::Corrupt("lz4 match exceeds expected length"));
        }
        cur.copy_match(dist, match_len);
    }
    if cur.remaining() != 0 {
        return Err(CodecError::LengthMismatch { expected: expected_len, actual: cur.produced() });
    }
    Ok(())
}

/// Greedy LZ4 compressor (`lz4fast` analogue). Level = acceleration 1..=32.
#[derive(Debug, Clone, Copy)]
pub struct Lz4Fast {
    accel: u8,
}

impl Lz4Fast {
    /// Create with acceleration factor `1..=32` (1 = best ratio).
    pub fn new(accel: u8) -> Self {
        Lz4Fast { accel: accel.clamp(1, 32) }
    }

    /// The greedy parser's settings for this acceleration.
    pub(crate) fn config(&self) -> MatchConfig {
        MatchConfig {
            window_log: 16,
            min_match: MIN_MATCH,
            max_match: usize::MAX,
            max_chain: 1,
            nice_len: 64,
            accel: u32::from(self.accel),
        }
    }
}

impl Codec for Lz4Fast {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::Lz4Fast, self.accel)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        out.reserve(self.max_compressed_len(input.len()));
        greedy_parse(input, &self.config(), |seq| emit_seq(input, seq, out));
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        decode_block(input, expected_len, out)
    }
}

/// Hash-chain lazy LZ4 compressor (`lz4hc` analogue). Level 1..=12.
#[derive(Debug, Clone, Copy)]
pub struct Lz4Hc {
    level: u8,
}

impl Lz4Hc {
    /// Create with compression level `1..=12` (12 = best ratio).
    pub fn new(level: u8) -> Self {
        Lz4Hc { level: level.clamp(1, 12) }
    }

    /// The lazy parser's settings for this level.
    pub(crate) fn config(&self) -> MatchConfig {
        MatchConfig {
            window_log: 16,
            min_match: MIN_MATCH,
            max_match: usize::MAX,
            // Chain depth doubles per level, as in LZ4-HC.
            max_chain: 1u32 << u32::from(self.level).min(10),
            nice_len: 32 + 16 * usize::from(self.level),
            accel: 1,
        }
    }
}

impl Codec for Lz4Hc {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::Lz4Hc, self.level)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        out.reserve(self.max_compressed_len(input.len()));
        lazy_parse(input, &self.config(), |seq| emit_seq(input, seq, out));
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        decode_block(input, expected_len, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_to_vec, decompress_to_vec};

    fn roundtrip(codec: &dyn Codec, data: &[u8]) -> usize {
        let c = compress_to_vec(codec, data);
        assert_eq!(
            decompress_to_vec(codec, &c, data.len()).unwrap(),
            data,
            "{} on {} bytes",
            codec.name(),
            data.len()
        );
        c.len()
    }

    #[test]
    fn roundtrip_text() {
        let data = b"it was the best of times, it was the worst of times".repeat(50);
        roundtrip(&Lz4Fast::new(1), &data);
        roundtrip(&Lz4Hc::new(9), &data);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for n in 0..20usize {
            let data: Vec<u8> = (0..n as u8).collect();
            roundtrip(&Lz4Fast::new(1), &data);
            roundtrip(&Lz4Hc::new(6), &data);
        }
    }

    #[test]
    fn roundtrip_long_literal_run() {
        // > 15 literals forces extended literal length encoding.
        let mut x = 1u32;
        let data: Vec<u8> = (0..1000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        roundtrip(&Lz4Fast::new(1), &data);
    }

    #[test]
    fn roundtrip_long_match_run() {
        // Long zero run forces extended match length encoding.
        roundtrip(&Lz4Fast::new(1), &vec![0u8; 100_000]);
        roundtrip(&Lz4Hc::new(12), &vec![0u8; 100_000]);
    }

    #[test]
    fn hc_compresses_at_least_as_well_as_fast() {
        let data =
            b"compression ratio comparison between greedy and lazy hash chain parsing strategies"
                .repeat(64);
        let fast = roundtrip(&Lz4Fast::new(1), &data);
        let hc = roundtrip(&Lz4Hc::new(12), &data);
        assert!(hc <= fast, "hc {hc} should be <= fast {fast}");
    }

    #[test]
    fn higher_accel_still_roundtrips() {
        let data = b"acceleration trades ratio for speed ".repeat(200);
        for accel in [1, 4, 8, 16, 32] {
            roundtrip(&Lz4Fast::new(accel), &data);
        }
    }

    #[test]
    fn corrupt_offset_zero_rejected() {
        // token: 0 literals + match, offset 0x0000 (invalid).
        let bad = [0x00u8, 0x00, 0x00];
        let mut out = Vec::new();
        assert!(decode_block(&bad, 10, &mut out).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = b"truncate this compressed stream somewhere in the middle".repeat(10);
        let c = compress_to_vec(&Lz4Fast::new(1), &data);
        let mut out = Vec::new();
        assert!(decode_block(&c[..c.len() / 2], data.len(), &mut out).is_err());
    }

    #[test]
    fn wrong_expected_len_rejected() {
        let data = b"expected length checks".repeat(8);
        let c = compress_to_vec(&Lz4Hc::new(4), &data);
        assert!(decompress_to_vec(&Lz4Hc::new(4), &c, data.len() + 1).is_err());
        assert!(decompress_to_vec(&Lz4Hc::new(4), &c, data.len().saturating_sub(1)).is_err());
    }
}
