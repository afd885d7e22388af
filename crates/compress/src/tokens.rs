//! LZ77 parse output shared by every LZ-family backend.
//!
//! A parse is a list of [`Seq`]uences, LZ4-style: each sequence carries a
//! run of literals followed by one back-reference match, except the final
//! sequence which may have `match_len == 0` (trailing literals only).

/// One LZ sequence: `lit_len` literal bytes starting at `lit_start` in the
/// original input, then a match of `match_len` bytes copied from `dist`
/// bytes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seq {
    /// Offset of the literal run in the original input.
    pub lit_start: usize,
    /// Number of literal bytes.
    pub lit_len: usize,
    /// Match length in bytes; `0` only on the final sequence.
    pub match_len: usize,
    /// Match distance (how far back the copy source is); `>= 1` when
    /// `match_len > 0`.
    pub dist: usize,
}

/// LZMA-style slot coding for unbounded values (match lengths, distances).
///
/// Values `0..=3` are their own slot; a larger value with most-significant
/// bit at position `m` maps to slot `2m | next-bit`, followed by `m-1`
/// verbatim extra bits. 64 slots cover the full `u32` range.
pub mod slots {
    /// Slot index for `v`.
    #[inline]
    pub fn slot_of(v: u32) -> u32 {
        if v < 4 {
            v
        } else {
            let m = 31 - v.leading_zeros();
            (m << 1) | ((v >> (m - 1)) & 1)
        }
    }

    /// Number of verbatim extra bits carried by `slot`.
    #[inline]
    pub fn extra_bits(slot: u32) -> u32 {
        if slot < 4 {
            0
        } else {
            (slot >> 1) - 1
        }
    }

    /// Smallest value in `slot`.
    #[inline]
    pub fn base(slot: u32) -> u32 {
        if slot < 4 {
            slot
        } else {
            let m = slot >> 1;
            (2 | (slot & 1)) << (m - 1)
        }
    }

    /// Extra-bits payload for `v` in its slot.
    #[inline]
    pub fn extra_value(v: u32) -> u32 {
        let s = slot_of(v);
        v - base(s)
    }

    /// Total number of slots needed to cover `u32`.
    pub const SLOT_COUNT: usize = 64;

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip_exhaustive_small() {
            for v in 0..100_000u32 {
                let s = slot_of(v);
                assert!(s < SLOT_COUNT as u32);
                let rebuilt = base(s) + extra_value(v);
                assert_eq!(rebuilt, v);
                assert!(extra_value(v) < (1 << extra_bits(s)) || extra_bits(s) == 0);
            }
        }

        #[test]
        fn roundtrip_large_values() {
            for v in [1u32 << 20, (1 << 24) + 12345, u32::MAX / 2, u32::MAX] {
                let s = slot_of(v);
                assert_eq!(base(s) + extra_value(v), v);
            }
        }

        #[test]
        fn slots_are_monotone() {
            let mut prev = 0;
            for v in 0..10_000u32 {
                let s = slot_of(v);
                assert!(s >= prev);
                prev = s;
            }
        }
    }
}

/// Verify a parse reconstructs `input` exactly (the parsers' tests).
#[cfg(test)]
pub(crate) fn parse_reconstructs(input: &[u8], seqs: &[Seq]) -> bool {
    let mut out = Vec::with_capacity(input.len());
    for seq in seqs {
        if seq.lit_start + seq.lit_len > input.len() {
            return false;
        }
        out.extend_from_slice(&input[seq.lit_start..seq.lit_start + seq.lit_len]);
        if seq.match_len > 0 {
            if seq.dist == 0 || seq.dist > out.len() {
                return false;
            }
            let start = out.len() - seq.dist;
            for i in 0..seq.match_len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    out == input
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruct_literals_only() {
        let input = b"hello world";
        let seqs = [Seq { lit_start: 0, lit_len: input.len(), match_len: 0, dist: 0 }];
        assert!(parse_reconstructs(input, &seqs));
    }

    #[test]
    fn reconstruct_with_match() {
        let input = b"abcabcabc";
        let seqs = [Seq { lit_start: 0, lit_len: 3, match_len: 6, dist: 3 }];
        assert!(parse_reconstructs(input, &seqs));
    }

    #[test]
    fn reject_bad_distance() {
        let input = b"abcabc";
        let seqs = [Seq { lit_start: 0, lit_len: 2, match_len: 4, dist: 5 }];
        assert!(!parse_reconstructs(input, &seqs));
    }
}
