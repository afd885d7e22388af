//! LZSSE8-style codec: LZ with 8-byte minimum matches and a decode loop
//! built around unaligned 8-byte copies.
//!
//! The real LZSSE8 targets SSE 16-byte copies with branchless control-word
//! parsing; the property that matters for the paper is its *design point*:
//! slightly worse ratio than lz4hc on generic data but the lowest
//! decompression cost on medium-entropy inputs, because every copy is a
//! word-granular block move. This implementation keeps the 8-byte
//! granularity (min match 8, literal runs padded to 8-byte copies) so the
//! decoder hot loop is two unaligned `u64` load/stores and one branch.
//!
//! Format per sequence: `[u8 lit_code][literals][u16le offset][u8 len_code]`
//! with 255-run extensions for both codes. The final sequence is literals
//! only (no offset/len). Offsets are 16-bit, window 64 KiB.

use crate::copy;
use crate::matchfinder::{lazy_seqs, MatchConfig};
use crate::{Codec, CodecError, CodecFamily, CodecId};

const MIN_MATCH: usize = 8;

/// LZSSE8-style codec. `level` (1..=8) controls search depth only.
#[derive(Debug, Clone, Copy)]
pub struct Lzsse8 {
    level: u8,
}

impl Lzsse8 {
    /// Create with compression level `1..=8`.
    pub fn new(level: u8) -> Self {
        Lzsse8 { level: level.clamp(1, 8) }
    }

    fn config(&self) -> MatchConfig {
        MatchConfig {
            window_log: 16,
            min_match: MIN_MATCH,
            max_match: usize::MAX,
            max_chain: 4u32 << (2 * u32::from(self.level)),
            nice_len: 64 * usize::from(self.level),
            accel: 1,
        }
    }
}

fn write_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn read_ext(input: &[u8], i: &mut usize) -> Result<usize, CodecError> {
    let mut total = 0usize;
    loop {
        let &b = input.get(*i).ok_or(CodecError::Truncated)?;
        *i += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

impl Codec for Lzsse8 {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::Lzsse8, self.level)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        let seqs = lazy_seqs(input, &self.config());
        for (idx, seq) in seqs.iter().enumerate() {
            let is_last = idx + 1 == seqs.len();
            write_ext(out, seq.lit_len);
            out.extend_from_slice(&input[seq.lit_start..seq.lit_start + seq.lit_len]);
            if seq.match_len > 0 {
                debug_assert!(seq.match_len >= MIN_MATCH && seq.dist <= 0xffff);
                out.extend_from_slice(&(seq.dist as u16).to_le_bytes());
                write_ext(out, seq.match_len - MIN_MATCH);
            } else {
                debug_assert!(is_last);
            }
        }
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let base = out.len();
        let target = base + expected_len;
        let mut i = 0usize;
        out.reserve(expected_len + 8);

        while i < input.len() {
            let lit_len = read_ext(input, &mut i)?;
            if i + lit_len > input.len() {
                return Err(CodecError::Truncated);
            }
            // 8-byte-granular literal copy: the 255-run encoding keeps the
            // common case (short runs) to a single control byte, and the
            // copy itself is one or two unaligned word moves.
            copy::append_slice(out, &input[i..i + lit_len]);
            i += lit_len;
            if out.len() > target {
                return Err(CodecError::Corrupt("lzsse literals exceed expected length"));
            }
            if i == input.len() {
                break;
            }
            if i + 2 > input.len() {
                return Err(CodecError::Truncated);
            }
            let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
            i += 2;
            let len = read_ext(input, &mut i)? + MIN_MATCH;
            if dist == 0 || dist > out.len() - base {
                return Err(CodecError::Corrupt("lzsse offset out of range"));
            }
            if out.len() + len > target {
                return Err(CodecError::Corrupt("lzsse match exceeds expected length"));
            }
            // With MIN_MATCH = 8 nearly every match takes the wild 8-byte
            // stride inside the primitive; dist < 8 pattern-doubles.
            copy::overlap_copy(out, dist, len);
        }
        if out.len() != target {
            return Err(CodecError::LengthMismatch {
                expected: expected_len,
                actual: out.len() - base,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_to_vec, decompress_to_vec};

    fn roundtrip(level: u8, data: &[u8]) -> usize {
        let codec = Lzsse8::new(level);
        let c = compress_to_vec(&codec, data);
        assert_eq!(decompress_to_vec(&codec, &c, data.len()).unwrap(), data);
        c.len()
    }

    #[test]
    fn roundtrip_text() {
        let data = b"eight byte minimum matches favour longer repeated phrases ".repeat(64);
        for level in 1..=4 {
            roundtrip(level, &data);
        }
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for n in 0..20usize {
            roundtrip(2, &vec![b'q'; n]);
        }
    }

    #[test]
    fn roundtrip_overlapping_short_distance() {
        // dist < 8 exercises the overlap path.
        roundtrip(2, &vec![5u8; 10_000]);
        roundtrip(2, &b"ababab".repeat(500));
    }

    #[test]
    fn roundtrip_unaligned_lengths() {
        let mut data = b"0123456789abcdefghij".repeat(100);
        data.truncate(1999); // non-multiple of 8
        roundtrip(3, &data);
    }

    #[test]
    fn compresses_redundant() {
        let data = b"the same eight bytes repeat: ABCDEFGH ABCDEFGH ABCDEFGH".repeat(50);
        let c = roundtrip(4, &data);
        assert!(c < data.len() / 2);
    }

    #[test]
    fn corrupt_offset_rejected() {
        // 0 literals then offset 0.
        let bad = [0u8, 0, 0, 0];
        let mut out = Vec::new();
        assert!(Lzsse8::new(1).decompress(&bad, 100, &mut out).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let data = b"truncation handling must be graceful and total".repeat(20);
        let c = compress_to_vec(&Lzsse8::new(2), &data);
        for cut in [1, c.len() / 3, c.len() - 1] {
            let mut out = Vec::new();
            assert!(Lzsse8::new(2).decompress(&c[..cut], data.len(), &mut out).is_err());
        }
    }
}
