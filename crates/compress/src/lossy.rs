//! Error-bounded lossy compression of floating-point data — the paper's
//! future work (§VIII: "including lossy compressors such as SZ and ZFP
//! as examined in the CODAR project").
//!
//! [`SzLite`] is an SZ-style coder: a Lorenzo (previous-value) predictor,
//! residuals quantised to `2 * error_bound` bins, quantisation codes
//! entropy-coded with the in-crate Huffman, unpredictable values stored
//! verbatim. Every decoded value is within `error_bound` of its original.
//!
//! ZFP's fixed-precision mode is a prefix of the store's bit-plane tiers,
//! whose error [`crate::progressive::prefix_error_bound`] states.
//!
//! A lossy coder cannot implement the lossless [`crate::Codec`] trait, and
//! has no `CodecId`: nothing in the store can name it.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{build_lengths, HuffDecoder, HuffEncoder};
use crate::varint::{read_uvarint, write_uvarint};
use crate::CodecError;

/// Number of quantisation bins on each side of the prediction (the
/// alphabet must stay below u16::MAX for the Huffman tables).
const SZ_BINS: usize = 16384;
/// Huffman alphabet: bin codes plus one escape symbol.
const SZ_ESCAPE: usize = 2 * SZ_BINS + 1;
const SZ_ALPHABET: usize = SZ_ESCAPE + 1;

/// SZ-style error-bounded compressor with absolute error bound `eb`.
#[derive(Debug, Clone, Copy)]
pub struct SzLite {
    /// Absolute error bound.
    pub error_bound: f32,
}

impl SzLite {
    /// Create with absolute error bound `eb > 0`.
    pub fn new(eb: f32) -> Self {
        assert!(eb > 0.0, "error bound must be positive");
        SzLite { error_bound: eb }
    }

    /// Short name for reports, e.g. `sz(1e-3)`.
    pub fn name(&self) -> String {
        format!("sz({:.0e})", self.error_bound)
    }

    /// Compress `values` into bytes.
    pub fn compress(&self, values: &[f32]) -> Vec<u8> {
        let eb = f64::from(self.error_bound);
        // Pass 1: quantise against the *reconstructed* predictor (the
        // decoder only sees reconstructed values; tracking them here keeps
        // the error from accumulating past the bound).
        let mut codes: Vec<u32> = Vec::with_capacity(values.len());
        let mut escapes: Vec<f32> = Vec::new();
        let mut prev = 0.0f64;
        for &v in values {
            let v64 = f64::from(v);
            let diff = v64 - prev;
            let q = (diff / (2.0 * eb)).round();
            // The decoder reconstructs in f32; verify the *actual*
            // reconstruction honours the bound and escape otherwise (the
            // same safeguard real SZ applies).
            let recon = prev + q * 2.0 * eb;
            let honoured = (recon as f32 - v).abs() <= self.error_bound;
            if q.abs() < SZ_BINS as f64 && v.is_finite() && honoured {
                let code = (q as i64 + SZ_BINS as i64) as u32;
                codes.push(code);
                prev = recon;
            } else {
                codes.push(SZ_ESCAPE as u32);
                escapes.push(v);
                prev = v64;
            }
        }

        // Pass 2: Huffman-code the bin stream.
        let mut freqs = vec![0u64; SZ_ALPHABET];
        for &c in &codes {
            freqs[c as usize] += 1;
        }
        let lengths = build_lengths(&freqs, 15);
        let enc = HuffEncoder::from_lengths(&lengths);
        let mut bits = BitWriter::with_capacity(values.len() / 2);
        for &c in &codes {
            enc.encode(&mut bits, c as usize);
        }
        let bitstream = bits.finish();

        let mut out = Vec::with_capacity(bitstream.len() + escapes.len() * 4 + 64);
        out.extend_from_slice(&self.error_bound.to_le_bytes());
        write_uvarint(&mut out, values.len() as u64);
        write_uvarint(&mut out, escapes.len() as u64);
        for e in &escapes {
            out.extend_from_slice(&e.to_le_bytes());
        }
        // The code-length table is sparse (few bins actually used), so
        // store (symbol, length) pairs instead of the full 64 K alphabet.
        let used: Vec<(usize, u8)> =
            lengths.iter().enumerate().filter(|(_, &l)| l > 0).map(|(s, &l)| (s, l)).collect();
        write_uvarint(&mut out, used.len() as u64);
        for (sym, len) in used {
            write_uvarint(&mut out, sym as u64);
            out.push(len);
        }
        write_uvarint(&mut out, bitstream.len() as u64);
        out.extend_from_slice(&bitstream);
        out
    }

    /// Decompress to exactly `n` values. The header's counts are
    /// untrusted: one that overruns `data` is an error, never an
    /// overflowing offset.
    pub fn decompress(&self, data: &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
        let mut pos = 0usize;
        if data.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let eb = f64::from(f32::from_le_bytes(data[..4].try_into().expect("4 bytes")));
        pos += 4;
        let count = read_uvarint(data, &mut pos)? as usize;
        if count != n {
            return Err(CodecError::LengthMismatch { expected: n, actual: count });
        }
        let n_escapes = read_uvarint(data, &mut pos)? as usize;
        let escape_bytes = n_escapes
            .checked_mul(4)
            .and_then(|len| data.get(pos..)?.get(..len))
            .ok_or(CodecError::Truncated)?;
        pos += escape_bytes.len();
        let escapes: Vec<f32> = escape_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        let n_used = read_uvarint(data, &mut pos)? as usize;
        let mut lengths = vec![0u8; SZ_ALPHABET];
        for _ in 0..n_used {
            let sym = read_uvarint(data, &mut pos)? as usize;
            let &len = data.get(pos).ok_or(CodecError::Truncated)?;
            pos += 1;
            if sym >= SZ_ALPHABET {
                return Err(CodecError::Corrupt("sz symbol out of range"));
            }
            lengths[sym] = len;
        }
        let dec = HuffDecoder::from_lengths(&lengths)?;
        let bits_len = read_uvarint(data, &mut pos)? as usize;
        let bitstream = data.get(pos..).and_then(|rest| rest.get(..bits_len));
        let mut r = BitReader::new(bitstream.ok_or(CodecError::Truncated)?);

        let mut out = Vec::with_capacity(n);
        let mut prev = 0.0f64;
        let mut esc_iter = escapes.into_iter();
        for _ in 0..n {
            let sym = dec.decode(&mut r)? as usize;
            if sym == SZ_ESCAPE {
                let v = esc_iter.next().ok_or(CodecError::Corrupt("sz escape underflow"))?;
                prev = f64::from(v);
                out.push(v);
            } else {
                let q = sym as i64 - SZ_BINS as i64;
                prev += q as f64 * 2.0 * eb;
                out.push(prev as f32);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_signal(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * 100.0 + 0.3 * (i as f32 * 0.37).cos()).collect()
    }

    fn noisy_signal(n: usize) -> Vec<f32> {
        let mut x = 0x1234_5678u32;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (i as f32 * 0.01).sin() * 100.0 + (x as f32 / u32::MAX as f32 - 0.5) * 2.0
            })
            .collect()
    }

    #[test]
    fn sz_respects_error_bound() {
        for eb in [1e-1f32, 1e-2, 1e-3] {
            let sz = SzLite::new(eb);
            let values = noisy_signal(5000);
            let compressed = sz.compress(&values);
            let restored = sz.decompress(&compressed, values.len()).unwrap();
            let worst =
                values.iter().zip(&restored).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(worst <= eb * 1.0001, "eb {eb}: worst error {worst}");
        }
    }

    #[test]
    fn sz_beats_lossless_on_smooth_floats() {
        let values = smooth_signal(8000);
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let sz = SzLite::new(1e-2);
        let lossy = sz.compress(&values);
        let lossless = crate::compress_to_vec(&crate::lzma_lite::LzmaLite::new(6), &bytes);
        assert!(
            lossy.len() * 2 < lossless.len(),
            "sz {} should be well under half of lzma {}",
            lossy.len(),
            lossless.len()
        );
    }

    #[test]
    fn sz_handles_outliers_via_escape() {
        let mut values = smooth_signal(1000);
        values[500] = 1e30;
        values[501] = -1e30;
        values[502] = f32::MAX / 2.0;
        let sz = SzLite::new(1e-3);
        let restored = sz.decompress(&sz.compress(&values), values.len()).unwrap();
        assert_eq!(restored[500], 1e30);
        assert_eq!(restored[501], -1e30);
        // Neighbours still within bound.
        assert!((restored[499] - values[499]).abs() <= 1e-3 * 1.0001);
    }

    #[test]
    fn sz_empty_and_tiny() {
        let sz = SzLite::new(1e-3);
        for n in 0..5usize {
            let values = smooth_signal(n);
            let restored = sz.decompress(&sz.compress(&values), n).unwrap();
            assert_eq!(restored.len(), n);
        }
    }

    #[test]
    fn sz_wrong_count_rejected() {
        let sz = SzLite::new(1e-3);
        let c = sz.compress(&smooth_signal(100));
        assert!(sz.decompress(&c, 99).is_err());
    }

    #[test]
    fn lossy_tradeoff_ordering() {
        // Tighter bounds cost more bytes — the CODAR-style tradeoff curve
        // must be monotone.
        let values = noisy_signal(8000);
        let sizes: Vec<usize> = [1e-1f32, 1e-2, 1e-3, 1e-4]
            .iter()
            .map(|&eb| SzLite::new(eb).compress(&values).len())
            .collect();
        for pair in sizes.windows(2) {
            assert!(pair[0] <= pair[1], "tighter bound must not shrink output: {sizes:?}");
        }
    }
}
