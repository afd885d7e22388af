//! `lzma`-class codec: LZ parse + adaptive binary range coding.
//!
//! A simplified LZMA: per position a context-modelled `is_match` bit, then
//! either a literal coded through an order-1 bit tree (context = top 3
//! bits of the previous byte) or a match coded as a length (LZMA's
//! low/mid/high three-tree split) plus a distance (6-bit slot tree + direct
//! extra bits + adaptive 4-bit align tree). No rep-distances — the paper
//! only needs lzma's design point: the best ratios in the suite with a
//! decompression cost two to three orders of magnitude above the fast LZs,
//! which bit-by-bit adaptive decoding delivers inherently.
//!
//! The `xz` variant wraps the same payload with a CRC-32 of the plaintext,
//! verified on decompression (the small extra cost matching xz vs lzma in
//! the paper's Table IV).

use crate::copy::Cursor;
use crate::crc32::crc32;
use crate::matchfinder::{lazy_seqs, MatchConfig};
use crate::rangecoder::{Prob, RangeDecoder, RangeEncoder};
use crate::tokens::slots;
use crate::{Codec, CodecError, CodecFamily, CodecId};

const MIN_MATCH: usize = 2;
/// Length coding: low 3-bit tree (0..8), mid 3-bit tree (8..16), high
/// 8-bit tree (16..272).
const LEN_LOW: u32 = 8;
const LEN_MID: u32 = 8;
const LEN_HIGH: u32 = 256;
const MAX_LEN: usize = MIN_MATCH + (LEN_LOW + LEN_MID + LEN_HIGH) as usize - 1;
const LIT_CTX: usize = 8;
const ALIGN_BITS: u32 = 4;

struct Model {
    is_match: Vec<Prob>, // ctx: prev-byte class
    literal: Vec<Prob>,  // LIT_CTX trees of 256 probs
    len_choice: [Prob; 2],
    len_low: Vec<Prob>,
    len_mid: Vec<Prob>,
    len_high: Vec<Prob>,
    dist_slot: Vec<Prob>,  // 6-bit tree (64 slots), selected by len class
    dist_align: Vec<Prob>, // 4-bit tree for the low bits of long dists
}

impl Model {
    fn new() -> Self {
        Model {
            is_match: vec![Prob::default(); LIT_CTX],
            literal: vec![Prob::default(); LIT_CTX * 256],
            len_choice: [Prob::default(); 2],
            len_low: vec![Prob::default(); 8],
            len_mid: vec![Prob::default(); 8],
            len_high: vec![Prob::default(); 256],
            dist_slot: vec![Prob::default(); 4 * 64],
            dist_align: vec![Prob::default(); 1 << ALIGN_BITS],
        }
    }

    #[inline]
    fn lit_ctx(prev: u8) -> usize {
        (prev >> 5) as usize
    }

    #[inline]
    fn len_class(len: usize) -> usize {
        // Distance-slot context by length, as in LZMA (lengths 2,3,4,5+).
        (len - MIN_MATCH).min(3)
    }
}

fn encode_len(enc: &mut RangeEncoder, m: &mut Model, len: usize) {
    let v = (len - MIN_MATCH) as u32;
    if v < LEN_LOW {
        enc.encode_bit(&mut m.len_choice[0], 0);
        enc.encode_bittree(&mut m.len_low, 3, v);
    } else if v < LEN_LOW + LEN_MID {
        enc.encode_bit(&mut m.len_choice[0], 1);
        enc.encode_bit(&mut m.len_choice[1], 0);
        enc.encode_bittree(&mut m.len_mid, 3, v - LEN_LOW);
    } else {
        enc.encode_bit(&mut m.len_choice[0], 1);
        enc.encode_bit(&mut m.len_choice[1], 1);
        enc.encode_bittree(&mut m.len_high, 8, v - LEN_LOW - LEN_MID);
    }
}

fn decode_len(dec: &mut RangeDecoder<'_>, m: &mut Model) -> usize {
    let v = if dec.decode_bit(&mut m.len_choice[0]) == 0 {
        dec.decode_bittree(&mut m.len_low, 3)
    } else if dec.decode_bit(&mut m.len_choice[1]) == 0 {
        LEN_LOW + dec.decode_bittree(&mut m.len_mid, 3)
    } else {
        LEN_LOW + LEN_MID + dec.decode_bittree(&mut m.len_high, 8)
    };
    v as usize + MIN_MATCH
}

fn encode_dist(enc: &mut RangeEncoder, m: &mut Model, len: usize, dist: usize) {
    let dval = (dist - 1) as u32;
    let slot = slots::slot_of(dval);
    let class = Model::len_class(len);
    enc.encode_bittree(&mut m.dist_slot[class * 64..(class + 1) * 64], 6, slot);
    let extra = slots::extra_bits(slot);
    if extra > 0 {
        let ev = slots::extra_value(dval);
        if extra <= ALIGN_BITS {
            enc.encode_bittree(&mut m.dist_align, extra, ev);
        } else {
            enc.encode_direct(ev >> ALIGN_BITS, extra - ALIGN_BITS);
            enc.encode_bittree(&mut m.dist_align, ALIGN_BITS, ev & ((1 << ALIGN_BITS) - 1));
        }
    }
}

fn decode_dist(dec: &mut RangeDecoder<'_>, m: &mut Model, len: usize) -> usize {
    let class = Model::len_class(len);
    let slot = dec.decode_bittree(&mut m.dist_slot[class * 64..(class + 1) * 64], 6);
    let extra = slots::extra_bits(slot);
    let ev = if extra == 0 {
        0
    } else if extra <= ALIGN_BITS {
        dec.decode_bittree(&mut m.dist_align, extra)
    } else {
        let hi = dec.decode_direct(extra - ALIGN_BITS);
        let lo = dec.decode_bittree(&mut m.dist_align, ALIGN_BITS);
        (hi << ALIGN_BITS) | lo
    };
    (slots::base(slot) + ev) as usize + 1
}

fn lzma_compress(input: &[u8], level: u8, out: &mut Vec<u8>) {
    if input.is_empty() {
        return;
    }
    let lv = u32::from(level.clamp(1, 9));
    let cfg = MatchConfig {
        window_log: (16 + lv / 2).min(22),
        min_match: 3, // 2-byte matches rarely pay off with our slot costs
        max_match: MAX_LEN,
        max_chain: 8u32 << lv.min(9),
        nice_len: (16 << lv.min(8)).min(MAX_LEN as u32) as usize,
        accel: 1,
    };
    let seqs = lazy_seqs(input, &cfg);

    let mut enc = RangeEncoder::new();
    let mut m = Model::new();
    let mut prev = 0u8;
    for seq in &seqs {
        for &b in &input[seq.lit_start..seq.lit_start + seq.lit_len] {
            let ctx = Model::lit_ctx(prev);
            enc.encode_bit(&mut m.is_match[ctx], 0);
            enc.encode_bittree(&mut m.literal[ctx * 256..(ctx + 1) * 256], 8, u32::from(b));
            prev = b;
        }
        if seq.match_len > 0 {
            let ctx = Model::lit_ctx(prev);
            enc.encode_bit(&mut m.is_match[ctx], 1);
            encode_len(&mut enc, &mut m, seq.match_len);
            encode_dist(&mut enc, &mut m, seq.match_len, seq.dist);
            let end = seq.lit_start + seq.lit_len + seq.match_len;
            prev = input[end - 1];
        }
    }
    out.extend_from_slice(&enc.finish());
}

fn lzma_decompress(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    if expected_len == 0 {
        return Ok(());
    }
    let mut dec = RangeDecoder::new(input)?;
    let mut m = Model::new();
    let mut prev = 0u8;
    let mut cur = Cursor::new(out, expected_len);
    while cur.remaining() > 0 {
        let ctx = Model::lit_ctx(prev);
        if dec.decode_bit(&mut m.is_match[ctx]) == 0 {
            let b = dec.decode_bittree(&mut m.literal[ctx * 256..(ctx + 1) * 256], 8) as u8;
            cur.literals(&[b]);
            prev = b;
        } else {
            let len = decode_len(&mut dec, &mut m);
            let dist = decode_dist(&mut dec, &mut m, len);
            if dist > cur.produced() {
                return Err(CodecError::Corrupt("lzma distance out of range"));
            }
            if len > cur.remaining() {
                return Err(CodecError::Corrupt("lzma match exceeds expected length"));
            }
            cur.copy_match(dist, len);
            prev = cur.last();
        }
    }
    Ok(())
}

/// `lzma`-class codec. Levels `1..=9`.
#[derive(Debug, Clone, Copy)]
pub struct LzmaLite {
    level: u8,
}

impl LzmaLite {
    /// Create with compression level `1..=9`.
    pub fn new(level: u8) -> Self {
        LzmaLite { level: level.clamp(1, 9) }
    }
}

impl Codec for LzmaLite {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::LzmaLite, self.level)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        lzma_compress(input, self.level, out);
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        lzma_decompress(input, expected_len, out)
    }
}

/// `xz`-class codec: lzma payload + CRC-32 integrity check.
#[derive(Debug, Clone, Copy)]
pub struct Xz {
    level: u8,
}

impl Xz {
    /// Create with compression level `1..=9`.
    pub fn new(level: u8) -> Self {
        Xz { level: level.clamp(1, 9) }
    }
}

const XZ_MAGIC: &[u8; 4] = b"FXZ1";

impl Codec for Xz {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::Xz, self.level)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(XZ_MAGIC);
        out.extend_from_slice(&crc32(input).to_le_bytes());
        lzma_compress(input, self.level, out);
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if input.len() < 8 {
            return Err(CodecError::Truncated);
        }
        if &input[..4] != XZ_MAGIC {
            return Err(CodecError::Corrupt("bad xz magic"));
        }
        let expect_crc = u32::from_le_bytes(input[4..8].try_into().unwrap());
        let start = out.len();
        lzma_decompress(&input[8..], expected_len, out)?;
        if crc32(&out[start..]) != expect_crc {
            return Err(CodecError::ChecksumMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_to_vec, decompress_to_vec, Codec};

    fn roundtrip(codec: &dyn Codec, data: &[u8]) -> usize {
        let c = compress_to_vec(codec, data);
        assert_eq!(
            decompress_to_vec(codec, &c, data.len()).unwrap(),
            data,
            "{} {} bytes",
            codec.name(),
            data.len()
        );
        c.len()
    }

    #[test]
    fn roundtrip_text_levels() {
        let data = b"adaptive range coding squeezes the last redundancy out of text ".repeat(40);
        for level in [1u8, 5, 9] {
            roundtrip(&LzmaLite::new(level), &data);
            roundtrip(&Xz::new(level), &data);
        }
    }

    #[test]
    fn roundtrip_empty_tiny() {
        for n in 0..10usize {
            roundtrip(&LzmaLite::new(5), &vec![b'm'; n]);
            roundtrip(&Xz::new(5), &vec![b'm'; n]);
        }
    }

    #[test]
    fn roundtrip_binary_structured() {
        let mut data = Vec::new();
        for i in 0u32..3000 {
            data.extend_from_slice(&(f64::from(i) * 0.001).to_le_bytes());
        }
        roundtrip(&LzmaLite::new(9), &data);
    }

    #[test]
    fn roundtrip_incompressible() {
        let mut x = 0xABCDEF12u32;
        let data: Vec<u8> = (0..8000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        roundtrip(&LzmaLite::new(5), &data);
    }

    #[test]
    fn lzma_beats_zling_on_text() {
        let data = b"the highest ratio family must actually achieve the highest ratio on \
                     plain redundant english text or the whole tradeoff story collapses "
            .repeat(60);
        let lz = roundtrip(&LzmaLite::new(9), &data);
        let zl = compress_to_vec(&crate::zling::Zling::new(4), &data).len();
        assert!(lz < zl, "lzma {lz} should beat zling {zl}");
    }

    #[test]
    fn long_matches_are_capped_and_still_roundtrip() {
        roundtrip(&LzmaLite::new(5), &vec![0u8; 50_000]);
    }

    #[test]
    fn xz_detects_corruption() {
        let data = b"integrity matters for archival formats".repeat(20);
        let mut c = compress_to_vec(&Xz::new(5), &data);
        let mid = 8 + (c.len() - 8) / 2; // inside the lzma payload
        c[mid] ^= 0x01;
        match decompress_to_vec(&Xz::new(5), &c, data.len()) {
            Err(_) => {}
            Ok(out) => assert_ne!(out, data, "corruption must not yield identical output"),
        }
    }

    #[test]
    fn xz_bad_magic_rejected() {
        let data = b"magic check";
        let mut c = compress_to_vec(&Xz::new(5), data);
        c[0] = b'Z';
        assert!(decompress_to_vec(&Xz::new(5), &c, data.len()).is_err());
    }

    #[test]
    fn xz_truncated_header_rejected() {
        assert!(decompress_to_vec(&Xz::new(5), b"FXZ", 10).is_err());
    }
}
