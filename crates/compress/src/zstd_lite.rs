//! `zstd`-class codec: LZ77 + FSE (tANS) entropy coding.
//!
//! The paper's future work calls for "additional compression methods";
//! zstd is the modern default between the fast byte-LZs and lzma, and its
//! defining ingredient is the tANS entropy stage ([`crate::fse`]).
//!
//! Stream layout (all lengths LEB128):
//!
//! ```text
//! n_seqs n_literals
//! literals  block   (raw | fse)
//! lit-len   slots   (raw | fse)   \
//! match-len slots   (raw | fse)    } one stream per sequence field
//! distance  slots   (raw | fse)   /
//! extra-bits stream (ll, ml, dist extras per sequence, in order)
//! ```
//!
//! Each block is `u8` mode + payload; FSE blocks carry their normalised
//! counts so the decoder can rebuild the table.

use crate::bitio::{BitReader, BitWriter};
use crate::copy;
use crate::fse::{decode_all, encode_all, FseTable};
use crate::matchfinder::{lazy_seqs, MatchConfig};
use crate::tokens::slots;
use crate::varint::{read_uvarint, write_uvarint};
use crate::{Codec, CodecError, CodecFamily, CodecId};

const MIN_MATCH: usize = 4;
const MODE_RAW: u8 = 0;
const MODE_FSE: u8 = 1;

/// `zstd`-class codec. Levels `1..=9`.
#[derive(Debug, Clone, Copy)]
pub struct ZstdLite {
    level: u8,
}

impl ZstdLite {
    /// Create with compression level `1..=9`.
    pub fn new(level: u8) -> Self {
        ZstdLite { level: level.clamp(1, 9) }
    }

    fn config(&self) -> MatchConfig {
        let lv = u32::from(self.level);
        MatchConfig {
            window_log: (17 + lv / 3).min(21),
            min_match: MIN_MATCH,
            max_match: usize::MAX,
            max_chain: 8u32 << lv.min(9),
            nice_len: 16 << lv.min(8),
            accel: 1,
        }
    }
}

/// Write one symbol block: FSE when it pays, raw otherwise.
fn write_block(out: &mut Vec<u8>, symbols: &[u16], alphabet: usize, table_log: u32) {
    debug_assert!(symbols.iter().all(|&s| (s as usize) < alphabet));
    let distinct = {
        let mut seen = vec![false; alphabet];
        let mut d = 0;
        for &s in symbols {
            if !seen[s as usize] {
                seen[s as usize] = true;
                d += 1;
            }
        }
        d
    };
    write_uvarint(out, symbols.len() as u64);
    if symbols.len() < 32 || distinct <= 1 {
        out.push(MODE_RAW);
        if alphabet <= 256 {
            out.extend(symbols.iter().map(|&s| s as u8));
        } else {
            for &s in symbols {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        return;
    }
    let mut counts = vec![0u32; alphabet];
    for &s in symbols {
        counts[s as usize] += 1;
    }
    let log = table_log.min(crate::fse::MAX_TABLE_LOG);
    let table = FseTable::from_counts(&counts, log).expect("valid table");
    let mut w = BitWriter::with_capacity(symbols.len() / 2);
    encode_all(&table, symbols, &mut w);
    let bits = w.finish();

    // Header cost check: fall back to raw if FSE does not pay.
    let mut header = Vec::new();
    header.push(log as u8);
    write_uvarint(&mut header, alphabet as u64);
    for &c in table.normalized() {
        write_uvarint(&mut header, u64::from(c));
    }
    let fse_total = 1 + header.len() + 5 + bits.len();
    let raw_total = 1 + symbols.len() * if alphabet <= 256 { 1 } else { 2 };
    if fse_total >= raw_total {
        out.push(MODE_RAW);
        if alphabet <= 256 {
            out.extend(symbols.iter().map(|&s| s as u8));
        } else {
            for &s in symbols {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        return;
    }
    out.push(MODE_FSE);
    out.extend_from_slice(&header);
    write_uvarint(out, bits.len() as u64);
    out.extend_from_slice(&bits);
}

/// Decode the FSE payload of a block (everything after the mode byte).
fn read_fse_symbols(
    input: &[u8],
    pos: &mut usize,
    alphabet: usize,
    n: usize,
) -> Result<Vec<u16>, CodecError> {
    let &log = input.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    let stored_alphabet = read_uvarint(input, pos)? as usize;
    if stored_alphabet != alphabet || u32::from(log) > crate::fse::MAX_TABLE_LOG {
        return Err(CodecError::Corrupt("zstd block header mismatch"));
    }
    let mut norm = Vec::with_capacity(alphabet);
    for _ in 0..alphabet {
        norm.push(read_uvarint(input, pos)? as u32);
    }
    let table = FseTable::from_normalized(&norm, u32::from(log))?;
    let bits_len = read_uvarint(input, pos)? as usize;
    if *pos + bits_len > input.len() {
        return Err(CodecError::Truncated);
    }
    let mut r = BitReader::new(&input[*pos..*pos + bits_len]);
    *pos += bits_len;
    let symbols = decode_all(&table, n, &mut r)?;
    if symbols.iter().any(|&s| (s as usize) >= alphabet) {
        return Err(CodecError::Corrupt("zstd symbol out of alphabet"));
    }
    Ok(symbols)
}

/// Read one symbol block written by [`write_block`]. Shared with the
/// byte-wise decoder retained in [`crate::reference`].
pub(crate) fn read_block(
    input: &[u8],
    pos: &mut usize,
    alphabet: usize,
) -> Result<Vec<u16>, CodecError> {
    let n = read_uvarint(input, pos)? as usize;
    let &mode = input.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    match mode {
        MODE_RAW => {
            if alphabet <= 256 {
                if *pos + n > input.len() {
                    return Err(CodecError::Truncated);
                }
                let out = input[*pos..*pos + n].iter().map(|&b| u16::from(b)).collect();
                *pos += n;
                Ok(out)
            } else {
                if *pos + 2 * n > input.len() {
                    return Err(CodecError::Truncated);
                }
                let out = input[*pos..*pos + 2 * n]
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]))
                    .collect();
                *pos += 2 * n;
                Ok(out)
            }
        }
        MODE_FSE => read_fse_symbols(input, pos, alphabet, n),
        _ => Err(CodecError::Corrupt("zstd unknown block mode")),
    }
}

/// Read a literal block (alphabet 256) directly into bytes: the raw mode
/// is a plain slice copy and the FSE mode narrows once after decoding —
/// the decode hot path never touches the per-byte `u16` map.
fn read_literal_block(input: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
    let n = read_uvarint(input, pos)? as usize;
    let &mode = input.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    match mode {
        MODE_RAW => {
            if *pos + n > input.len() {
                return Err(CodecError::Truncated);
            }
            let out = input[*pos..*pos + n].to_vec();
            *pos += n;
            Ok(out)
        }
        MODE_FSE => {
            let symbols = read_fse_symbols(input, pos, 256, n)?;
            Ok(symbols.into_iter().map(|s| s as u8).collect())
        }
        _ => Err(CodecError::Corrupt("zstd unknown block mode")),
    }
}

impl Codec for ZstdLite {
    fn id(&self) -> CodecId {
        CodecId::new(CodecFamily::ZstdLite, self.level)
    }

    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        if input.is_empty() {
            return;
        }
        let seqs = lazy_seqs(input, &self.config());

        // Gather the four streams.
        let mut literals: Vec<u8> = Vec::new();
        let mut ll_slots: Vec<u16> = Vec::with_capacity(seqs.len());
        let mut ml_slots: Vec<u16> = Vec::with_capacity(seqs.len());
        let mut d_slots: Vec<u16> = Vec::with_capacity(seqs.len());
        let mut extras = BitWriter::new();
        for seq in &seqs {
            literals.extend_from_slice(&input[seq.lit_start..seq.lit_start + seq.lit_len]);
            push_field(&mut ll_slots, &mut extras, seq.lit_len as u32);
            push_field(&mut ml_slots, &mut extras, seq.match_len as u32);
            push_field(&mut d_slots, &mut extras, seq.dist as u32);
        }
        let extras = extras.finish();

        write_uvarint(out, seqs.len() as u64);
        write_uvarint(out, literals.len() as u64);
        let lit_syms: Vec<u16> = literals.iter().map(|&b| u16::from(b)).collect();
        write_block(out, &lit_syms, 256, 11);
        write_block(out, &ll_slots, slots::SLOT_COUNT, 9);
        write_block(out, &ml_slots, slots::SLOT_COUNT, 9);
        write_block(out, &d_slots, slots::SLOT_COUNT, 9);
        write_uvarint(out, extras.len() as u64);
        out.extend_from_slice(&extras);
    }

    fn decompress(
        &self,
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if expected_len == 0 {
            return if input.is_empty() {
                Ok(())
            } else {
                Err(CodecError::Corrupt("zstd trailing data"))
            };
        }
        let base = out.len();
        let target = base + expected_len;
        let mut pos = 0usize;
        let n_seqs = read_uvarint(input, &mut pos)? as usize;
        let n_literals = read_uvarint(input, &mut pos)? as usize;
        let lit_syms = read_literal_block(input, &mut pos)?;
        if lit_syms.len() != n_literals {
            return Err(CodecError::Corrupt("zstd literal count mismatch"));
        }
        let ll = read_block(input, &mut pos, slots::SLOT_COUNT)?;
        let ml = read_block(input, &mut pos, slots::SLOT_COUNT)?;
        let dd = read_block(input, &mut pos, slots::SLOT_COUNT)?;
        if ll.len() != n_seqs || ml.len() != n_seqs || dd.len() != n_seqs {
            return Err(CodecError::Corrupt("zstd sequence count mismatch"));
        }
        let extras_len = read_uvarint(input, &mut pos)? as usize;
        if pos + extras_len > input.len() {
            return Err(CodecError::Truncated);
        }
        let mut extras = BitReader::new(&input[pos..pos + extras_len]);

        out.reserve(expected_len + 8);
        let mut lit_pos = 0usize;
        for i in 0..n_seqs {
            let lit_len = read_field(&mut extras, ll[i])? as usize;
            let match_len = read_field(&mut extras, ml[i])? as usize;
            let dist = read_field(&mut extras, dd[i])? as usize;
            if lit_pos + lit_len > lit_syms.len() {
                return Err(CodecError::Corrupt("zstd literal overrun"));
            }
            if out.len() + lit_len + match_len > target {
                return Err(CodecError::Corrupt("zstd output overrun"));
            }
            copy::append_slice(out, &lit_syms[lit_pos..lit_pos + lit_len]);
            lit_pos += lit_len;
            if match_len > 0 {
                if dist == 0 || dist > out.len() - base {
                    return Err(CodecError::Corrupt("zstd distance out of range"));
                }
                copy::overlap_copy(out, dist, match_len);
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
}

#[inline]
fn push_field(slots_out: &mut Vec<u16>, extras: &mut BitWriter, value: u32) {
    let slot = slots::slot_of(value);
    slots_out.push(slot as u16);
    let nb = slots::extra_bits(slot);
    if nb > 0 {
        extras.write(u64::from(slots::extra_value(value)), nb);
    }
}

#[inline]
pub(crate) fn read_field(extras: &mut BitReader<'_>, slot: u16) -> Result<u32, CodecError> {
    let slot = u32::from(slot);
    let nb = slots::extra_bits(slot);
    let extra = if nb > 0 { extras.read(nb)? as u32 } else { 0 };
    Ok(slots::base(slot) + extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_to_vec, decompress_to_vec};

    fn roundtrip(level: u8, data: &[u8]) -> usize {
        let codec = ZstdLite::new(level);
        let c = compress_to_vec(&codec, data);
        assert_eq!(
            decompress_to_vec(&codec, &c, data.len()).unwrap(),
            data,
            "zstd-{level} {} bytes",
            data.len()
        );
        c.len()
    }

    #[test]
    fn roundtrip_text_all_levels() {
        let data = b"zstandard style sequences with tans coded literals and slots ".repeat(60);
        for level in 1..=9 {
            roundtrip(level, &data);
        }
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for n in 0..24usize {
            roundtrip(5, &vec![b'z'; n]);
        }
    }

    #[test]
    fn roundtrip_binary_structured() {
        let mut data = Vec::new();
        for i in 0u32..6000 {
            data.extend_from_slice(&(i / 3).to_le_bytes());
        }
        roundtrip(6, &data);
    }

    #[test]
    fn roundtrip_incompressible() {
        let mut x = 77u32;
        let data: Vec<u8> = (0..6000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 11) as u8
            })
            .collect();
        roundtrip(3, &data);
    }

    #[test]
    fn beats_lz4hc_on_text() {
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(
                format!("entry {i}: entropy coding helps when lz leaves residue; ").as_bytes(),
            );
        }
        let z = roundtrip(9, &data);
        let lz = compress_to_vec(&crate::lz4::Lz4Hc::new(12), &data).len();
        assert!(z < lz, "zstd {z} should beat lz4hc {lz}");
    }

    #[test]
    fn decodes_faster_than_lzma_design_point() {
        // Structural check rather than timing: zstd decode is table-driven
        // per symbol, lzma is bit-by-bit adaptive. Just verify both hit
        // similar ratios on structured data so they are comparable points.
        let data: Vec<u8> = (0..30_000u32).flat_map(|i| (i / 7).to_le_bytes()).collect();
        let z = roundtrip(9, &data);
        let lzma = compress_to_vec(&crate::lzma_lite::LzmaLite::new(6), &data).len();
        assert!(z < data.len() / 2, "zstd compresses structured data");
        assert!((z as f64) < lzma as f64 * 3.0, "within 3x of lzma's size");
    }

    #[test]
    fn truncated_rejected() {
        let data = b"truncation must fail cleanly".repeat(40);
        let c = compress_to_vec(&ZstdLite::new(5), &data);
        for cut in [3usize, c.len() / 2, c.len() - 1] {
            let mut out = Vec::new();
            assert!(ZstdLite::new(5).decompress(&c[..cut], data.len(), &mut out).is_err());
        }
    }

    #[test]
    fn wrong_expected_len_rejected() {
        let data = b"length checks".repeat(30);
        let c = compress_to_vec(&ZstdLite::new(5), &data);
        assert!(decompress_to_vec(&ZstdLite::new(5), &c, data.len() + 3).is_err());
    }
}
