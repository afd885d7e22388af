//! Retained byte-wise reference decoders, the byte-wise CRC-32, and the
//! list-returning match finders with the two-pass LZ4 encoder over them.
//!
//! When the LZ-family decode loops were rewritten around the word-wide
//! primitives in [`crate::copy`], the decoders here became the semantic
//! baseline: the same parsing loops with every copy done strictly one
//! byte at a time — the simplest obviously-correct formulation, free of
//! wild copies, pattern doubling and slice tricks. The differential
//! proptest suite (`tests/prop_decode.rs`) pins the optimized decoders
//! against these byte for byte on random and adversarial streams, and the
//! `decode_throughput` bench reports both sides' MB/s. [`crc32`] plays
//! the same part for the table-sliced [`crate::crc32`]
//! (`tests/prop_crc.rs`), and [`greedy_parse`], [`lazy_parse`] and
//! [`lz4_two_pass`] for the sink-driven parsers in [`crate::matchfinder`]
//! and the LZ4 encoders that write their block while those parse
//! (`tests/prop_encode.rs`).
//!
//! Families with no byte-wise twin here (rle, huffman, zling, brotli,
//! lzma, xz, bzip, store) decode through the registry codec in
//! [`decompress`]; for those the differential suite degenerates to a
//! roundtrip check. zling, brotli, lzma and xz do write through
//! [`crate::copy::Cursor`], but their match copies are a small share of a
//! bit-serial entropy decode; the suite's truncation, bit-flip, garbage
//! and wrong-length properties are what would catch a check they miss.

use crate::filters::Filter;
use crate::lz4::{Lz4Fast, Lz4Hc};
use crate::matchfinder::MatchConfig;
use crate::tokens::Seq;
use crate::varint::read_uvarint;
use crate::zstd_lite::{read_block, read_field};
use crate::{bitio::BitReader, CodecError, CodecFamily, CodecId};

/// Byte-at-a-time lookup table for the reflected polynomial 0xEDB88320.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Byte-wise CRC-32: one table lookup per input byte, the loop
/// [`crate::crc32`] ran before it was sliced. It keeps its own table, so
/// the two share nothing but the polynomial.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xffff_ffff
}

/// Per-byte overlap copy (`out.push` in a loop): the model the optimized
/// [`crate::copy::Cursor::copy_match`] must reproduce for every `(dist, len)`.
fn overlap_copy(out: &mut Vec<u8>, dist: usize, len: usize) {
    let start = out.len() - dist;
    for i in 0..len {
        let b = out[start + i];
        out.push(b);
    }
}

/// Per-byte literal copy: the model for [`crate::copy::Cursor::literals`].
fn push_bytes(out: &mut Vec<u8>, src: &[u8]) {
    for &b in src {
        out.push(b);
    }
}

#[inline]
fn hash4(bytes: &[u8], table_log: u32) -> usize {
    // Fibonacci hash of the first 4 bytes.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    ((v.wrapping_mul(2654435761)) >> (32 - table_log)) as usize
}

#[inline]
fn match_len(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    // Compare 8 bytes at a time: one XOR + trailing_zeros per word, via
    // the same unaligned word load the decode hot path uses.
    let max = limit.min(input.len() - b);
    let mut n = 0;
    while n + 8 <= max {
        let x = crate::copy::read_u64(input, a + n);
        let y = crate::copy::read_u64(input, b + n);
        let xor = x ^ y;
        if xor != 0 {
            return n + (xor.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && input[a + n] == input[b + n] {
        n += 1;
    }
    n
}

/// The greedy parse as it was before [`crate::matchfinder::greedy_parse`]
/// took a sink: the whole parse returned as a list, each position hashed
/// from four single-byte loads, an empty slot told apart by a sentinel and
/// every candidate handed to the match extension from byte 0.
pub fn greedy_parse(input: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
    let n = input.len();
    let mut seqs = Vec::new();
    if n < cfg.min_match + 4 {
        if n > 0 {
            seqs.push(Seq { lit_start: 0, lit_len: n, match_len: 0, dist: 0 });
        }
        return seqs;
    }

    let table_log = cfg.window_log.clamp(10, 16);
    let mut table = vec![u32::MAX; 1 << table_log];
    let window = cfg.window();

    let mut anchor = 0usize; // first un-emitted literal
    let mut pos = 0usize;
    let mut misses = 0u32;
    // Leave room for the final 4-byte hash read and a minimal tail.
    let scan_end = n - cfg.min_match.max(4);

    while pos <= scan_end {
        let h = hash4(&input[pos..], table_log);
        let cand = table[h] as usize;
        table[h] = pos as u32;

        let found = if cand != u32::MAX as usize && pos - cand < window {
            let len = match_len(input, cand, pos, cfg.max_match);
            if len >= cfg.min_match {
                Some((len, pos - cand))
            } else {
                None
            }
        } else {
            None
        };

        match found {
            Some((len, dist)) => {
                seqs.push(Seq { lit_start: anchor, lit_len: pos - anchor, match_len: len, dist });
                pos += len;
                anchor = pos;
                misses = 0;
            }
            None => {
                misses += 1;
                // LZ4-style acceleration: step = 1 + misses/accel_divisor.
                pos += 1 + (misses >> (6 / cfg.accel.clamp(1, 6))) as usize;
            }
        }
    }

    if anchor < n {
        seqs.push(Seq { lit_start: anchor, lit_len: n - anchor, match_len: 0, dist: 0 });
    }
    seqs
}

/// The lazy parse as it was before [`crate::matchfinder::lazy_parse`] took
/// a sink: the whole parse returned as a list, and a position hashed anew
/// by every probe and every insert.
pub fn lazy_parse(input: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
    let n = input.len();
    let mut seqs = Vec::new();
    if n < cfg.min_match + 4 {
        if n > 0 {
            seqs.push(Seq { lit_start: 0, lit_len: n, match_len: 0, dist: 0 });
        }
        return seqs;
    }

    let table_log = (cfg.window_log + 1).clamp(12, 17);
    let mut head = vec![u32::MAX; 1 << table_log];
    // prev chain indexed by position modulo window. Clamp the window to the
    // input size so big-window configs don't allocate 4 MiB chains for
    // small files (distances can never exceed the input length anyway).
    let window = cfg.window().min(n.next_power_of_two());
    let mask = window - 1;
    let mut prev = vec![u32::MAX; window];

    let scan_end = n - cfg.min_match.max(4);

    let insert = |head: &mut [u32], prev: &mut [u32], input: &[u8], pos: usize| {
        let h = hash4(&input[pos..], table_log);
        prev[pos & mask] = head[h];
        head[h] = pos as u32;
    };

    let best_match =
        |head: &[u32], prev: &[u32], input: &[u8], pos: usize| -> Option<(usize, usize)> {
            let h = hash4(&input[pos..], table_log);
            let mut cand = head[h];
            let mut best_len = cfg.min_match - 1;
            let mut best_dist = 0usize;
            let mut depth = cfg.max_chain;
            while cand != u32::MAX && depth > 0 {
                let c = cand as usize;
                if pos - c >= window {
                    break;
                }
                // Quick reject: check the byte just past the current best.
                if best_len == 0
                    || (c + best_len < input.len()
                        && pos + best_len < input.len()
                        && input[c + best_len] == input[pos + best_len])
                {
                    let len = match_len(input, c, pos, cfg.max_match);
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - c;
                        if len >= cfg.nice_len {
                            break;
                        }
                    }
                }
                cand = prev[c & mask];
                depth -= 1;
            }
            if best_len >= cfg.min_match {
                Some((best_len, best_dist))
            } else {
                None
            }
        };

    let mut anchor = 0usize;
    let mut pos = 0usize;
    while pos <= scan_end {
        let found = best_match(&head, &prev, input, pos);
        insert(&mut head, &mut prev, input, pos);
        let Some((mut len, mut dist)) = found else {
            pos += 1;
            continue;
        };

        // Lazy evaluation: would starting one byte later give a longer match?
        while pos < scan_end && len < cfg.nice_len {
            if let Some((len2, dist2)) = best_match(&head, &prev, input, pos + 1) {
                if len2 > len + 1 {
                    // Defer: current byte becomes a literal.
                    insert(&mut head, &mut prev, input, pos + 1);
                    pos += 1;
                    len = len2;
                    dist = dist2;
                    continue;
                }
            }
            break;
        }

        seqs.push(Seq { lit_start: anchor, lit_len: pos - anchor, match_len: len, dist });
        // Insert positions covered by the match (sparsely for speed on
        // long matches).
        let match_end = pos + len;
        let insert_end = match_end.min(scan_end + 1);
        let step = if len > 512 { 8 } else { 1 };
        let mut p = pos + 1;
        while p < insert_end {
            insert(&mut head, &mut prev, input, p);
            p += step;
        }
        pos = match_end;
        anchor = pos;
    }

    if anchor < n {
        seqs.push(Seq { lit_start: anchor, lit_len: n - anchor, match_len: 0, dist: 0 });
    }
    seqs
}

/// Two-pass LZ4 block encoder (`lz4fast` and `lz4hc`): the retained
/// parsers below collect the whole parse, then [`lz4_emit_block`] lays the
/// block down — how both codecs encoded before they fused emission into
/// the parse. It shares nothing with them but the level-to-settings
/// tables, so it pins the rewritten parsers, the sink plumbing and the
/// fused emitter byte for byte (`tests/prop_encode.rs`), and it is the
/// baseline of the `decode_throughput` encode gate.
pub fn lz4_two_pass(id: CodecId, input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let seqs = match id.family() {
        Some(CodecFamily::Lz4Fast) => greedy_parse(input, &Lz4Fast::new(id.level()).config()),
        Some(CodecFamily::Lz4Hc) => lazy_parse(input, &Lz4Hc::new(id.level()).config()),
        _ => return Err(CodecError::UnknownCodec(id)),
    };
    let mut out = Vec::new();
    lz4_emit_block(input, &seqs, &mut out);
    Ok(out)
}

/// Encode a finished parse into the LZ4 block format.
fn lz4_emit_block(input: &[u8], seqs: &[Seq], out: &mut Vec<u8>) {
    let write_len_ext = |out: &mut Vec<u8>, mut v: usize| {
        while v >= 255 {
            out.push(255);
            v -= 255;
        }
        out.push(v as u8);
    };

    for (idx, seq) in seqs.iter().enumerate() {
        let is_last = idx + 1 == seqs.len();
        debug_assert!(is_last || seq.match_len >= 4);
        let lit_nibble = seq.lit_len.min(15);
        let match_code = if seq.match_len == 0 { 0 } else { seq.match_len - 4 };
        let match_nibble = match_code.min(15);
        out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
        if lit_nibble == 15 {
            write_len_ext(out, seq.lit_len - 15);
        }
        out.extend_from_slice(&input[seq.lit_start..seq.lit_start + seq.lit_len]);
        if seq.match_len > 0 {
            debug_assert!(seq.dist >= 1 && seq.dist <= 65535);
            out.extend_from_slice(&(seq.dist as u16).to_le_bytes());
            if match_nibble == 15 {
                write_len_ext(out, match_code - 15);
            }
        }
    }
}

/// Byte-wise LZ4 block decoder (shared by `lz4fast` and `lz4hc`).
pub fn lz4_block(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let base = out.len();
    let target = base + expected_len;
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
        if lit_len == 15 {
            lit_len += read_len_ext(input, &mut i)?;
        }
        if i + lit_len > input.len() {
            return Err(CodecError::Truncated);
        }
        push_bytes(out, &input[i..i + lit_len]);
        i += lit_len;
        if out.len() > target {
            return Err(CodecError::Corrupt("lz4 literals exceed expected length"));
        }
        if out.len() == target && i == input.len() {
            return Ok(()); // final literals-only sequence
        }
        if i + 2 > input.len() {
            return Err(CodecError::Truncated);
        }
        let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
        i += 2;
        if dist == 0 || dist > out.len() - base {
            return Err(CodecError::Corrupt("lz4 offset out of range"));
        }
        let mut match_len = (token & 0x0f) as usize;
        if match_len == 15 {
            match_len += read_len_ext(input, &mut i)?;
        }
        match_len += 4;
        if out.len() + match_len > target {
            return Err(CodecError::Corrupt("lz4 match exceeds expected length"));
        }
        overlap_copy(out, dist, match_len);
    }
    if out.len() != target {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual: out.len() - base,
        });
    }
    Ok(())
}

/// Byte-wise LibLZF decoder.
pub fn lzf(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let base = out.len();
    let mut i = 0usize;
    while i < input.len() {
        let ctrl = input[i] as usize;
        i += 1;
        if ctrl < 32 {
            let len = ctrl + 1;
            if i + len > input.len() {
                return Err(CodecError::Truncated);
            }
            push_bytes(out, &input[i..i + len]);
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
            let produced = out.len() - base;
            if off > produced {
                return Err(CodecError::Corrupt("lzf offset before start"));
            }
            overlap_copy(out, off, len);
        }
        if out.len() - base > expected_len {
            return Err(CodecError::Corrupt("lzf output exceeds expected length"));
        }
    }
    Ok(())
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

/// Byte-wise LZSSE8 decoder.
pub fn lzsse8(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let base = out.len();
    let target = base + expected_len;
    let mut i = 0usize;

    while i < input.len() {
        let lit_len = read_ext(input, &mut i)?;
        if i + lit_len > input.len() {
            return Err(CodecError::Truncated);
        }
        push_bytes(out, &input[i..i + lit_len]);
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
        let len = read_ext(input, &mut i)? + 8;
        if dist == 0 || dist > out.len() - base {
            return Err(CodecError::Corrupt("lzsse offset out of range"));
        }
        if out.len() + len > target {
            return Err(CodecError::Corrupt("lzsse match exceeds expected length"));
        }
        overlap_copy(out, dist, len);
    }
    if out.len() != target {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual: out.len() - base,
        });
    }
    Ok(())
}

/// Byte-wise `zstd_lite` decoder: same block readers as the optimized
/// path, but literals flow through the original `u16` symbol buffer and
/// per-byte map, and matches through the per-byte overlap copy.
pub fn zstd_lite(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
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
    let lit_syms = read_block(input, &mut pos, 256)?;
    if lit_syms.len() != n_literals {
        return Err(CodecError::Corrupt("zstd literal count mismatch"));
    }
    let ll = read_block(input, &mut pos, crate::tokens::slots::SLOT_COUNT)?;
    let ml = read_block(input, &mut pos, crate::tokens::slots::SLOT_COUNT)?;
    let dd = read_block(input, &mut pos, crate::tokens::slots::SLOT_COUNT)?;
    if ll.len() != n_seqs || ml.len() != n_seqs || dd.len() != n_seqs {
        return Err(CodecError::Corrupt("zstd sequence count mismatch"));
    }
    let extras_len = read_uvarint(input, &mut pos)? as usize;
    if pos + extras_len > input.len() {
        return Err(CodecError::Truncated);
    }
    let mut extras = BitReader::new(&input[pos..pos + extras_len]);

    out.reserve(expected_len);
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
        for &s in &lit_syms[lit_pos..lit_pos + lit_len] {
            out.push(s as u8);
        }
        lit_pos += lit_len;
        if match_len > 0 {
            if dist == 0 || dist > out.len() - base {
                return Err(CodecError::Corrupt("zstd distance out of range"));
            }
            overlap_copy(out, dist, match_len);
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

/// Decompress `input` with the reference (pre-optimization) decoder for
/// `id`, enforcing the exact-length contract of
/// [`crate::decompress_to_vec`].
pub fn decompress(id: CodecId, input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let family = id.family().ok_or(CodecError::UnknownCodec(id))?;
    let level = id.level() as usize;
    let mut out = Vec::with_capacity(expected_len);
    match family {
        CodecFamily::Lzf => lzf(input, expected_len, &mut out)?,
        CodecFamily::Lz4Fast | CodecFamily::Lz4Hc => lz4_block(input, expected_len, &mut out)?,
        CodecFamily::Lzsse8 => lzsse8(input, expected_len, &mut out)?,
        CodecFamily::ZstdLite => zstd_lite(input, expected_len, &mut out)?,
        CodecFamily::ShuffleLz | CodecFamily::DeltaLz | CodecFamily::ShuffleZstd => {
            let valid = match family {
                CodecFamily::DeltaLz => matches!(level, 1 | 2 | 4 | 8),
                _ => matches!(level, 2 | 4 | 8),
            };
            if !valid {
                return Err(CodecError::UnknownCodec(id));
            }
            let mut filtered = Vec::with_capacity(expected_len);
            if family == CodecFamily::ShuffleZstd {
                zstd_lite(input, expected_len, &mut filtered)?;
            } else {
                lz4_block(input, expected_len, &mut filtered)?;
            }
            if filtered.len() != expected_len {
                return Err(CodecError::LengthMismatch {
                    expected: expected_len,
                    actual: filtered.len(),
                });
            }
            let filter = if family == CodecFamily::DeltaLz {
                Filter::Delta(level)
            } else {
                Filter::Shuffle(level)
            };
            out = filter.invert(&filtered);
        }
        _ => {
            let codec = crate::registry::create(id)?;
            codec.decompress(input, expected_len, &mut out)?;
        }
    }
    if out.len() != expected_len {
        return Err(CodecError::LengthMismatch { expected: expected_len, actual: out.len() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::create;
    use crate::{compress_to_vec, CodecFamily, CodecId};

    #[test]
    fn reference_roundtrips_rewritten_families() {
        let data = b"reference decoders must stay decode-compatible forever ".repeat(40);
        for id in [
            CodecId::new(CodecFamily::Lzf, 2),
            CodecId::new(CodecFamily::Lz4Fast, 1),
            CodecId::new(CodecFamily::Lz4Hc, 9),
            CodecId::new(CodecFamily::Lzsse8, 2),
            CodecId::new(CodecFamily::ZstdLite, 5),
            CodecId::new(CodecFamily::ShuffleLz, 4),
            CodecId::new(CodecFamily::DeltaLz, 8),
            CodecId::new(CodecFamily::ShuffleZstd, 2),
        ] {
            let codec = create(id).unwrap();
            let c = compress_to_vec(codec.as_ref(), &data);
            assert_eq!(decompress(id, &c, data.len()).unwrap(), data, "{id}");
        }
    }

    #[test]
    fn reference_rejects_truncation() {
        let data = b"truncated reference streams must error".repeat(20);
        for id in [
            CodecId::new(CodecFamily::Lzf, 2),
            CodecId::new(CodecFamily::Lz4Fast, 1),
            CodecId::new(CodecFamily::Lzsse8, 2),
            CodecId::new(CodecFamily::ZstdLite, 5),
        ] {
            let codec = create(id).unwrap();
            let c = compress_to_vec(codec.as_ref(), &data);
            assert!(decompress(id, &c[..c.len() / 2], data.len()).is_err(), "{id}");
        }
    }

    #[test]
    fn reference_rejects_unknown_ids() {
        assert!(decompress(CodecId(0x7f01), b"", 0).is_err());
        assert!(decompress(CodecId::new(CodecFamily::ShuffleLz, 3), b"", 0).is_err());
    }
}
