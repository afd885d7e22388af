//! LibLZF-style codec: the smallest useful LZ format.
//!
//! Format (as in LibLZF): control byte `< 32` introduces a literal run of
//! `ctrl+1` bytes; otherwise the top 3 bits are `len-2` (7 = extended by a
//! following byte) and the low 5 bits are the high bits of a 13-bit
//! back-reference offset whose low 8 bits follow.
//!
//! The level selects the hash-table size used during compression; the
//! format (and therefore decompression speed) is identical at all levels.

use crate::copy::Cursor;
use crate::{Codec, CodecError, CodecFamily, CodecId};

const MAX_OFF: usize = 1 << 13;
const MAX_REF_LEN: usize = 255 + 9;
const MAX_LIT: usize = 32;

/// LibLZF-style codec. `level` in `1..=8` maps to hash-table sizes
/// `2^(12 + level)`.
#[derive(Debug, Clone, Copy)]
pub struct Lzf {
    level: u8,
}

impl Lzf {
    /// Create with compression level `1..=8`.
    pub fn new(level: u8) -> Self {
        Lzf { level: level.clamp(1, 8) }
    }

    fn table_log(&self) -> u32 {
        12 + u32::from(self.level)
    }
}

#[inline]
fn hash3(input: &[u8], i: usize, table_log: u32) -> usize {
    let v = u32::from(input[i]) << 16 | u32::from(input[i + 1]) << 8 | u32::from(input[i + 2]);
    ((v.wrapping_mul(2654435761)) >> (32 - table_log)) as usize
}

impl Codec for Lzf {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::Lzf, self.level)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        let n = input.len();
        let table_log = self.table_log();
        let mut table = vec![u32::MAX; 1 << table_log];
        let mut i = 0usize;
        let mut lit_start = 0usize;

        let flush_literals = |out: &mut Vec<u8>, input: &[u8], from: usize, to: usize| {
            let mut s = from;
            while s < to {
                let len = (to - s).min(MAX_LIT);
                out.push((len - 1) as u8);
                out.extend_from_slice(&input[s..s + len]);
                s += len;
            }
        };

        while i + 3 <= n {
            let h = hash3(input, i, table_log);
            let cand = table[h] as usize;
            table[h] = i as u32;
            if cand != u32::MAX as usize
                && i - cand <= MAX_OFF
                && input[cand..cand + 3] == input[i..i + 3]
            {
                // Extend the match.
                let mut len = 3;
                let max = (n - i).min(MAX_REF_LEN);
                while len < max && input[cand + len] == input[i + len] {
                    len += 1;
                }
                flush_literals(out, input, lit_start, i);
                let off = i - cand - 1;
                if len <= 8 {
                    out.push((((len - 2) << 5) | (off >> 8)) as u8);
                } else {
                    out.push(((7 << 5) | (off >> 8)) as u8);
                    out.push((len - 9) as u8);
                }
                out.push((off & 0xff) as u8);
                i += len;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(out, input, lit_start, n);
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        // Hot loop on a `copy::Cursor`: each run is checked against what
        // remains before it is written, and a run of up to 16 literals with
        // 16 input bytes left is one 16-byte store. Byte-wise original
        // retained as `crate::reference::lzf`.
        let mut cur = Cursor::new(out, expected_len);
        let mut i = 0usize;
        while i < input.len() {
            let ctrl = input[i] as usize;
            i += 1;
            if ctrl < 32 {
                let len = ctrl + 1;
                if i + len > input.len() {
                    return Err(CodecError::Truncated);
                }
                if len > cur.remaining() {
                    return Err(CodecError::Corrupt("lzf output exceeds expected length"));
                }
                match input[i..].first_chunk::<16>() {
                    Some(window) if len <= 16 => cur.wild_literals(window, len),
                    _ => cur.literals(&input[i..i + len]),
                }
                i += len;
            } else {
                let mut len = (ctrl >> 5) + 2;
                if len == 9 {
                    len += *input.get(i).ok_or(CodecError::Truncated)? as usize;
                    i += 1;
                }
                let lo = *input.get(i).ok_or(CodecError::Truncated)? as usize;
                i += 1;
                let off = ((ctrl & 0x1f) << 8 | lo) + 1;
                if off > cur.produced() {
                    return Err(CodecError::Corrupt("lzf offset before start"));
                }
                if len > cur.remaining() {
                    return Err(CodecError::Corrupt("lzf output exceeds expected length"));
                }
                cur.copy_match(off, len);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_to_vec, decompress_to_vec};

    fn roundtrip_at(level: u8, data: &[u8]) {
        let codec = Lzf::new(level);
        let c = compress_to_vec(&codec, data);
        assert_eq!(
            decompress_to_vec(&codec, &c, data.len()).unwrap(),
            data,
            "level {level}, {} bytes",
            data.len()
        );
    }

    #[test]
    fn roundtrip_text_all_levels() {
        let data = b"round and round and round the ragged rock the ragged rascal ran".repeat(20);
        for level in 1..=4 {
            roundtrip_at(level, &data);
        }
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for n in 0..8usize {
            roundtrip_at(2, &vec![b'x'; n]);
        }
    }

    #[test]
    fn roundtrip_long_matches() {
        // Forces the extended-length path (len > 8).
        roundtrip_at(2, &b"0123456789abcdef".repeat(300));
        roundtrip_at(2, &vec![0u8; 5000]);
    }

    #[test]
    fn compresses_redundant_data() {
        let data = b"abcdabcdabcd".repeat(100);
        let c = compress_to_vec(&Lzf::new(2), &data);
        assert!(c.len() < data.len() / 2);
    }

    #[test]
    fn offset_cap_respected() {
        // Repetition farther than 8 KiB apart cannot be matched; must still
        // round-trip via literals.
        let block: Vec<u8> = (0..200u8).collect();
        let mut data = block.repeat(1);
        data.extend(std::iter::repeat_n(0xAB, 9000));
        data.extend_from_slice(&block);
        roundtrip_at(3, &data);
    }

    #[test]
    fn corrupt_offset_rejected() {
        // A back-reference at the very start of the stream points nowhere.
        let bad = [0xE0u8, 0x00, 0x00]; // len=9-ish, offset=1, no prior output
        let mut out = Vec::new();
        assert!(Lzf::new(1).decompress(&bad, 100, &mut out).is_err());
    }
}
