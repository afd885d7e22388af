//! `brotli`-class codec: big-window LZ + context-modelled Huffman.
//!
//! Shares the zling stream machinery but adds the two brotli ingredients
//! that matter for its design point: a window far beyond 32 KiB (up to
//! 4 MiB here) and previous-byte literal context modelling (1, 2 or 4
//! literal/length Huffman tables selected by the high bits of the previous
//! output byte). Compared to zling this buys ratio on structured data at
//! the cost of a slower, context-switching decode — the same tradeoff the
//! paper measures for real brotli (Table VII: higher ratio, ~6-8x the
//! decompression cost of lz4hc).

use crate::matchfinder::{lazy_seqs, MatchConfig};
use crate::zling::{decode_lz_huffman, emit_lz_huffman};
use crate::{Codec, CodecError, CodecFamily, CodecId};

const MIN_MATCH: usize = 4;

/// `brotli`-class codec. Quality levels `1..=11` as in real brotli.
#[derive(Debug, Clone, Copy)]
pub struct BrotliLite {
    quality: u8,
}

impl BrotliLite {
    /// Create with quality `1..=11` (11 = best ratio).
    pub fn new(quality: u8) -> Self {
        BrotliLite { quality: quality.clamp(1, 11) }
    }

    fn config(&self) -> MatchConfig {
        let q = u32::from(self.quality);
        MatchConfig {
            // Window grows with quality: 64 KiB at q1 up to 4 MiB at q11.
            window_log: (16 + q / 2).min(22),
            min_match: MIN_MATCH,
            max_match: usize::MAX,
            max_chain: 4u32 << q.min(10),
            nice_len: 16 << q.min(8),
            accel: 1,
        }
    }

    /// Number of literal-context Huffman tables at this quality.
    fn contexts(&self) -> (usize, u32) {
        match self.quality {
            0..=4 => (1, 6),
            5..=8 => (2, 7), // ctx = prev >> 7 (binary text/binary split)
            _ => (4, 6),     // ctx = prev >> 6
        }
    }
}

impl Codec for BrotliLite {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::BrotliLite, self.quality)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        if input.is_empty() {
            return;
        }
        let (nctx, shift) = self.contexts();
        let seqs = lazy_seqs(input, &self.config());
        emit_lz_huffman(input, &seqs, out, nctx, shift);
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let (nctx, shift) = self.contexts();
        decode_lz_huffman(input, expected_len, out, nctx, shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_to_vec, decompress_to_vec};

    fn roundtrip(quality: u8, data: &[u8]) -> usize {
        let codec = BrotliLite::new(quality);
        let c = compress_to_vec(&codec, data);
        assert_eq!(
            decompress_to_vec(&codec, &c, data.len()).unwrap(),
            data,
            "brotli-{quality} {} bytes",
            data.len()
        );
        c.len()
    }

    #[test]
    fn roundtrip_all_qualities() {
        let data = b"brotli quality sweep exercises one, two and four context tables ".repeat(50);
        for q in 1..=11 {
            roundtrip(q, &data);
        }
    }

    #[test]
    fn roundtrip_empty_tiny() {
        for n in 0..10usize {
            roundtrip(9, &vec![b'v'; n]);
        }
    }

    #[test]
    fn large_window_catches_far_repeats() {
        // A block repeated 256 KiB later: invisible to a 32 KiB window,
        // visible to brotli-lite at high quality. The block itself must be
        // incompressible so the only win available is the far repeat.
        let mut y = 0x5DEECE66Du64;
        let block: Vec<u8> = (0..8192)
            .map(|_| {
                y = y.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (y >> 33) as u8
            })
            .collect();
        let mut data = block.clone();
        let mut x = 7u32;
        data.extend((0..260_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 8) as u8
        }));
        data.extend_from_slice(&block);

        let brotli = roundtrip(11, &data);
        let zling = compress_to_vec(&crate::zling::Zling::new(4), &data).len();
        assert!(
            brotli < zling,
            "big window should win on far repeats: brotli {brotli} vs zling {zling}"
        );
    }

    #[test]
    fn mixed_text_binary_uses_contexts() {
        // Alternating ASCII and high-byte regions reward context split.
        let mut data = Vec::new();
        for i in 0..60 {
            data.extend_from_slice(b"plain ascii text segment with words and spaces ");
            data.extend((0..48u8).map(|j| 0xC0 | ((i as u8).wrapping_add(j) & 0x3f)));
        }
        roundtrip(11, &data);
        roundtrip(6, &data);
    }

    #[test]
    fn truncated_rejected() {
        let data = b"brotli lite truncation check".repeat(30);
        let c = compress_to_vec(&BrotliLite::new(7), &data);
        let mut out = Vec::new();
        assert!(BrotliLite::new(7).decompress(&c[..c.len() / 2], data.len(), &mut out).is_err());
    }
}
