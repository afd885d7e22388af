//! Progressive (fidelity-tiered) encoding of f32 sample data.
//!
//! *Progressive Compressed Records* shows that a DL loader can trade
//! bytes for fidelity per epoch if samples are stored scan-ordered: a
//! prefix of the stream decodes to a coarse approximation, and each
//! additional "tier" refines it. This module implements that idea as a
//! bit-plane decomposition of the IEEE-754 representation:
//!
//! * The input is viewed as little-endian f32 lanes (a trailing
//!   `len % 4` bytes ride verbatim in tier 0).
//! * Each lane's 32 representation bits form 32 planes: the sign plane,
//!   the exponent planes, then mantissa planes MSB-first.
//! * The planes are split contiguously across `total_tiers` tiers, MSB
//!   planes first, so tier 0 alone reconstructs a truncated-mantissa
//!   approximation and the full tier set is *bit-exact* — losslessness
//!   falls out of the construction rather than needing a residual pass.
//!
//! Because truncating low representation bits can only reduce a float's
//! magnitude (non-negative IEEE-754 values order like their bit
//! patterns), the per-lane absolute error is non-increasing as tiers are
//! added — the monotonicity property the test suite pins.
//! [`prefix_error_bound`] states what a prefix guarantees; the sign,
//! exponent and top `m` mantissa planes are ZFP's fixed precision at `m` bits.
//!
//! Each tier's plane bitstream is packed plane-major (all lanes' bits
//! for one plane, then the next plane), which groups the highly
//! correlated sign/exponent bits together; the body is then stored via
//! LZ4 when that wins, raw otherwise.

use crate::lz4::Lz4Fast;
use crate::varint::{read_uvarint, write_uvarint};
use crate::{compress_to_vec, decompress_to_vec, CodecError};

/// Representation planes per f32 lane.
const PLANES: u32 = 32;
/// Tier body stored raw.
const COMP_STORE: u8 = 0;
/// Tier body stored LZ4-compressed.
const COMP_LZ4: u8 = 1;
/// Format version written into every tier header.
const VERSION: u8 = 1;
/// Most bytes one byte of an LZ4 block decodes to: a 255 byte extending a
/// match length.
const LZ4_MAX_EXPANSION: usize = 255;

/// Clamp a requested tier count to the encodable range (1..=32 — there
/// are only 32 planes to distribute).
pub fn clamp_tiers(tiers: u8) -> u8 {
    tiers.clamp(1, PLANES as u8)
}

/// Number of planes carried by tier `k` of `total` (tier 0 takes the
/// remainder so the sign + exponent planes land as early as possible).
fn planes_of(total: u8, k: u8) -> u32 {
    let q = PLANES / u32::from(total);
    let r = PLANES % u32::from(total);
    q + if k == 0 { r } else { 0 }
}

/// Highest (exclusive) plane index of tier `k`: tier 0 starts at plane
/// 31 and tiers descend contiguously from there.
fn plane_hi(total: u8, k: u8) -> u32 {
    let mut hi = PLANES;
    for t in 0..k {
        hi -= planes_of(total, t);
    }
    hi
}

/// Encode `data` into `tiers` payloads (clamped to 1..=32). Decoding any
/// non-empty prefix of the returned vector succeeds; decoding all of it
/// reproduces `data` exactly.
pub fn encode_tiers(data: &[u8], tiers: u8) -> Vec<Vec<u8>> {
    let total = clamp_tiers(tiers);
    let n = data.len() / 4;
    let tail = &data[n * 4..];
    let words: Vec<u32> = (0..n)
        .map(|i| u32::from_le_bytes(data[i * 4..i * 4 + 4].try_into().expect("4 bytes")))
        .collect();

    let lz4 = Lz4Fast::new(1);
    (0..total)
        .map(|k| {
            // Plane-major body: for each plane (MSB first), one bit per lane.
            let count = planes_of(total, k);
            let hi = plane_hi(total, k);
            let mut bits = crate::bitio::BitWriter::with_capacity((count as usize * n) / 8 + 16);
            for p in (hi - count..hi).rev() {
                for w in &words {
                    bits.write(u64::from((w >> p) & 1), 1);
                }
            }
            let mut body = if k == 0 { tail.to_vec() } else { Vec::new() };
            body.extend_from_slice(&bits.finish());

            let mut out = vec![VERSION, k, total];
            let packed = compress_to_vec(&lz4, &body);
            if packed.len() < body.len() {
                out.push(COMP_LZ4);
                write_uvarint(&mut out, body.len() as u64);
                out.extend_from_slice(&packed);
            } else {
                out.push(COMP_STORE);
                write_uvarint(&mut out, body.len() as u64);
                out.extend_from_slice(&body);
            }
            out
        })
        .collect()
}

/// Parse one tier payload: header validation, body decompression.
/// Returns `(tier_index, total_tiers, body)`. The header's `body_len` is
/// untrusted: one the stored bytes could not decode to is rejected before
/// anything is sized by it.
fn parse_tier(payload: &[u8]) -> Result<(u8, u8, Vec<u8>), CodecError> {
    if payload.len() < 4 {
        return Err(CodecError::Truncated);
    }
    if payload[0] != VERSION {
        return Err(CodecError::Corrupt("unknown progressive version"));
    }
    let (index, total, comp) = (payload[1], payload[2], payload[3]);
    if total == 0 || total > PLANES as u8 || index >= total {
        return Err(CodecError::Corrupt("progressive tier header out of range"));
    }
    let mut pos = 4usize;
    let body_len = read_uvarint(payload, &mut pos)? as usize;
    let stored = &payload[pos..];
    let body = match comp {
        COMP_STORE => {
            if stored.len() != body_len {
                return Err(CodecError::LengthMismatch {
                    expected: body_len,
                    actual: stored.len(),
                });
            }
            stored.to_vec()
        }
        COMP_LZ4 if body_len > stored.len().saturating_mul(LZ4_MAX_EXPANSION) => {
            return Err(CodecError::Corrupt("progressive body_len exceeds its stored bytes"))
        }
        COMP_LZ4 => decompress_to_vec(&Lz4Fast::new(1), stored, body_len)?,
        _ => return Err(CodecError::Corrupt("unknown progressive body compression")),
    };
    Ok((index, total, body))
}

/// Append a prefix of tiers, decoded back into `raw_len` bytes, to `out`
/// (untouched on an error). `tiers` must be the first `k` payloads of an
/// [`encode_tiers`] result, in order; with all tiers present the output is
/// byte-identical to the original. Missing low planes read as zero
/// (truncation toward zero).
///
/// `raw_len` is untrusted (it comes from a peer's frame or an FCHK
/// header): tier 0 carries every lane's top planes, so a `raw_len` whose
/// lanes tier 0's body cannot hold is rejected before anything is sized
/// by it.
pub fn decode_prefix(tiers: &[&[u8]], raw_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    if tiers.is_empty() {
        return Err(CodecError::Corrupt("no progressive tiers to decode"));
    }
    let n = raw_len / 4;
    let tail_len = raw_len - n * 4;
    let mut words = Vec::new();
    let mut tail: Vec<u8> = Vec::new();
    let mut expect_total: Option<u8> = None;

    for (at, payload) in tiers.iter().enumerate() {
        let (index, total, body) = parse_tier(payload)?;
        if index as usize != at || *expect_total.get_or_insert(total) != total {
            return Err(CodecError::Corrupt("progressive tiers out of order"));
        }
        let count = planes_of(total, index);
        let bit_bytes = if index == 0 {
            let bits = body.get(tail_len..).ok_or(CodecError::Truncated)?;
            let need = n.checked_mul(count as usize);
            if need.is_none_or(|need| need > bits.len().saturating_mul(8)) {
                return Err(CodecError::Corrupt("progressive raw_len exceeds tier 0"));
            }
            tail = body[..tail_len].to_vec();
            words = vec![0u32; n];
            bits
        } else {
            &body[..]
        };
        let hi = plane_hi(total, index);
        let mut bits = crate::bitio::BitReader::new(bit_bytes);
        for p in (hi - count..hi).rev() {
            for w in words.iter_mut() {
                *w |= (bits.read(1)? as u32) << p;
            }
        }
    }

    out.reserve(raw_len);
    for w in &words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&tail);
    Ok(())
}

/// Maximum absolute reconstruction error over the finite f32 lanes of
/// `original` (non-finite lanes and the byte tail are excluded — they
/// round-trip exactly at full fidelity and have no meaningful metric
/// distance before that).
pub fn max_abs_error(original: &[u8], approx: &[u8]) -> f32 {
    let n = original.len().min(approx.len()) / 4;
    let mut worst = 0.0f32;
    for i in 0..n {
        let o = f32::from_le_bytes(original[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        let a = f32::from_le_bytes(approx[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        if o.is_finite() {
            // A truncated-representation approximation of a finite lane is
            // itself finite, so the difference is well-defined.
            worst = worst.max((o - a).abs());
        }
    }
    worst
}

/// The [`max_abs_error`] a decode of the first `kept` of `total_tiers`
/// tiers of `data`'s encoding is guaranteed to stay within: 0 when every
/// tier is kept, and never larger for a longer prefix.
///
/// Per finite lane, the gap (in f64) between the lane with its dropped
/// planes cleared, which is what the decode yields, and with them set;
/// capped at `|v|`, since a decode never flips the sign or grows the
/// magnitude, and `|v|` where setting them makes the lane non-finite.
/// Rounded up to f32, so it bounds `max_abs_error`'s f32 measurement.
pub fn prefix_error_bound(data: &[u8], total_tiers: u8, kept: u8) -> f32 {
    let total = clamp_tiers(total_tiers);
    let dropped = ((1u64 << plane_hi(total, kept.min(total))) - 1) as u32;
    let worst = data
        .chunks_exact(4)
        .map(|lane| f32::from_le_bytes(lane.try_into().expect("4 bytes")))
        .filter(|v| v.is_finite())
        .map(|v| {
            let (lo, hi) =
                (f32::from_bits(v.to_bits() & !dropped), f32::from_bits(v.to_bits() | dropped));
            let gap = if hi.is_finite() { f64::from(hi) - f64::from(lo) } else { f64::INFINITY };
            gap.abs().min(f64::from(v.abs()))
        })
        .fold(0.0f64, f64::max);
    let bound = worst as f32;
    if f64::from(bound) < worst {
        bound.next_up()
    } else {
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_bytes(vals: &[f32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn decode(tiers: &[&[u8]], raw_len: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        decode_prefix(tiers, raw_len, &mut out).map(|()| out)
    }

    #[test]
    fn full_prefix_is_lossless_for_arbitrary_bytes() {
        let mut x = 0x243f6a88u32;
        let data: Vec<u8> = (0..4099)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        for tiers in [1u8, 2, 3, 5, 32] {
            let enc = encode_tiers(&data, tiers);
            assert_eq!(enc.len(), usize::from(clamp_tiers(tiers)));
            let refs: Vec<&[u8]> = enc.iter().map(Vec::as_slice).collect();
            assert_eq!(decode(&refs, data.len()).unwrap(), data, "tiers={tiers}");
        }
    }

    #[test]
    fn error_monotone_in_tier_count() {
        let vals: Vec<f32> =
            (0..500).map(|i| ((i as f32) * 0.37).sin() * 1e3 + i as f32 * 0.01).collect();
        let data = f32_bytes(&vals);
        let enc = encode_tiers(&data, 8);
        let mut last = f32::INFINITY;
        for k in 1..=enc.len() {
            let refs: Vec<&[u8]> = enc[..k].iter().map(Vec::as_slice).collect();
            let out = decode(&refs, data.len()).unwrap();
            let err = max_abs_error(&data, &out);
            assert!(err <= last, "tier {k}: {err} > {last}");
            last = err;
        }
        assert_eq!(last, 0.0, "all tiers decode exactly");
    }

    #[test]
    fn tiers_shrink_relative_to_raw_on_smooth_data() {
        let vals: Vec<f32> = (0..2000).map(|i| 100.0 + (i as f32) * 1e-3).collect();
        let data = f32_bytes(&vals);
        let enc = encode_tiers(&data, 4);
        let total: usize = enc.iter().map(Vec::len).sum();
        assert!(total < data.len(), "plane coding + lz4 beats raw: {total} vs {}", data.len());
        // Tier 0 alone is a small fraction of the file.
        assert!(enc[0].len() < data.len() / 2, "tier 0 is a coarse prefix: {}", enc[0].len());
    }

    #[test]
    fn non_finite_lanes_round_trip() {
        let data = f32_bytes(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.5e-42]);
        let enc = encode_tiers(&data, 4);
        let refs: Vec<&[u8]> = enc.iter().map(Vec::as_slice).collect();
        assert_eq!(decode(&refs, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_or_empty_tiers_error_not_panic() {
        assert!(decode(&[], 16).is_err());
        let enc = encode_tiers(&[1, 2, 3, 4, 5, 6, 7, 8], 3);
        // Out-of-order prefix.
        let refs: Vec<&[u8]> = vec![&enc[1]];
        assert!(decode(&refs, 8).is_err());
        // Truncated payload.
        let cut = &enc[0][..2];
        assert!(decode(&[cut], 8).is_err());
        // Bad version byte.
        let mut bad = enc[0].clone();
        bad[0] = 99;
        assert!(decode(&[&bad], 8).is_err());
    }

    #[test]
    fn empty_input_encodes_and_decodes() {
        let enc = encode_tiers(&[], 4);
        let refs: Vec<&[u8]> = enc.iter().map(Vec::as_slice).collect();
        assert_eq!(decode(&refs, 0).unwrap(), Vec::<u8>::new());
    }
}
