//! Differential decode properties: the word-wide optimized decoders must
//! produce *byte-for-byte* the same output as the retained byte-wise
//! decoders in `fanstore_compress::reference`, for every registry codec
//! configuration, on random and adversarial streams — and corrupt streams
//! (truncated or bit-flipped) must error identically-or-gracefully on
//! both, never panic or read out of bounds.
//!
//! The LZ4 block decoder additionally has a shortcut path that no
//! compressor output is guaranteed to steer through every edge of, so the
//! second half of this file builds blocks by hand: every combination of
//! literal/match nibble, match distance and distance from the end of the
//! block that decides between the shortcut and the bounded path, plus
//! every truncation and bit flip of a thinner set of them.

use fanstore_compress::copy::WILD_SLACK;
use fanstore_compress::lz4::Lz4Fast;
use fanstore_compress::registry::create;
use fanstore_compress::{
    compress_to_vec, decompress_into, decompress_to_vec, reference, Codec, CodecError, CodecFamily,
    CodecId,
};
use proptest::prelude::*;

/// Every codec configuration the registry exposes, one per family at each
/// interesting level. This is the full differential surface: the rewritten
/// hot loops (lzf, lz4fast, lz4hc, lzsse8, zstd, and the filtered wrappers
/// over them) plus the delegated families where the property degenerates
/// to a roundtrip check.
fn all_registry_ids() -> Vec<CodecId> {
    vec![
        CodecId::new(CodecFamily::Store, 0),
        CodecId::new(CodecFamily::Rle, 0),
        CodecId::new(CodecFamily::Lzf, 1),
        CodecId::new(CodecFamily::Lzf, 4),
        CodecId::new(CodecFamily::Lz4Fast, 1),
        CodecId::new(CodecFamily::Lz4Fast, 16),
        CodecId::new(CodecFamily::Lz4Hc, 4),
        CodecId::new(CodecFamily::Lz4Hc, 12),
        CodecId::new(CodecFamily::Lzsse8, 1),
        CodecId::new(CodecFamily::Lzsse8, 4),
        CodecId::new(CodecFamily::Huffman, 0),
        CodecId::new(CodecFamily::Zling, 2),
        CodecId::new(CodecFamily::BrotliLite, 5),
        CodecId::new(CodecFamily::LzmaLite, 3),
        CodecId::new(CodecFamily::Xz, 3),
        CodecId::new(CodecFamily::ZstdLite, 1),
        CodecId::new(CodecFamily::ZstdLite, 6),
        CodecId::new(CodecFamily::ShuffleLz, 2),
        CodecId::new(CodecFamily::ShuffleLz, 8),
        CodecId::new(CodecFamily::DeltaLz, 1),
        CodecId::new(CodecFamily::DeltaLz, 4),
        CodecId::new(CodecFamily::ShuffleZstd, 4),
        CodecId::new(CodecFamily::BzipLite, 3),
    ]
}

/// Streams engineered to stress the copy primitives: short literal tails,
/// overlap distances 1..8, word-boundary lengths, and plain noise.
fn data_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary bytes around the 8/16/24-byte copy cutoffs.
        proptest::collection::vec(any::<u8>(), 0..64),
        // Arbitrary bytes up to 4 KiB.
        proptest::collection::vec(any::<u8>(), 0..4096),
        // Tiny period patterns: dist < 8 overlap copies of every period.
        (1usize..9, any::<u8>(), 8usize..3000).prop_map(|(period, seed, total)| {
            (0..total).map(|i| seed.wrapping_add((i % period) as u8)).collect()
        }),
        // Repeated blocks: long matches at word-unaligned distances.
        (proptest::collection::vec(any::<u8>(), 1..40), 1usize..150).prop_map(|(block, reps)| {
            block.iter().copied().cycle().take(block.len() * reps).collect()
        }),
        // Low-entropy text-like data (FSE literal blocks in zstd).
        proptest::collection::vec(
            prop_oneof![Just(b'e'), Just(b't'), Just(b'a'), Just(b' '), Just(b'\n')],
            0..4096
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized decode == reference decode, byte for byte, every codec.
    #[test]
    fn optimized_matches_reference(data in data_strategy()) {
        for id in all_registry_ids() {
            let codec = create(id).unwrap();
            let compressed = compress_to_vec(codec.as_ref(), &data);
            let fast = decompress_to_vec(codec.as_ref(), &compressed, data.len())
                .unwrap_or_else(|e| panic!("{id} optimized failed on {} bytes: {e}", data.len()));
            let slow = reference::decompress(id, &compressed, data.len())
                .unwrap_or_else(|e| panic!("{id} reference failed on {} bytes: {e}", data.len()));
            prop_assert_eq!(&fast, &slow, "{} optimized != reference", id);
            prop_assert_eq!(&fast, &data, "{} decode != original", id);
        }
    }

    /// The buffer-reuse path decodes identically into a dirty buffer.
    #[test]
    fn decompress_into_matches(data in data_strategy()) {
        let mut scratch = vec![0x5Au8; 512];
        for id in all_registry_ids() {
            let codec = create(id).unwrap();
            let compressed = compress_to_vec(codec.as_ref(), &data);
            decompress_into(codec.as_ref(), &compressed, data.len(), &mut scratch)
                .unwrap_or_else(|e| panic!("{id} decompress_into failed: {e}"));
            prop_assert_eq!(&scratch, &data, "{} decompress_into mismatch", id);
        }
    }

    /// Truncated streams: both decoders must reject or produce the exact
    /// original prefix semantics — and never panic. If the optimized
    /// decoder errors the reference must not succeed with different bytes.
    #[test]
    fn truncation_agrees_and_never_panics(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        cut_seed in any::<u32>(),
    ) {
        for id in all_registry_ids() {
            let codec = create(id).unwrap();
            let compressed = compress_to_vec(codec.as_ref(), &data);
            if compressed.is_empty() {
                continue;
            }
            let cut = (cut_seed as usize) % compressed.len();
            let fast = decompress_to_vec(codec.as_ref(), &compressed[..cut], data.len());
            let slow = reference::decompress(id, &compressed[..cut], data.len());
            match (&fast, &slow) {
                (Ok(f), Ok(s)) => prop_assert_eq!(f, s, "{} truncated decode diverged", id),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{} truncated accept/reject diverged: fast={:?} slow={:?}",
                                  id, fast.is_ok(), slow.is_ok()),
            }
        }
    }

    /// Bit-flipped streams: decode must end in Ok-with-identical-bytes or
    /// an error on both sides — never a panic, hang, or divergence.
    #[test]
    fn bitflip_agrees_and_never_panics(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
        flip_seed in any::<u64>(),
    ) {
        for id in all_registry_ids() {
            let codec = create(id).unwrap();
            let mut compressed = compress_to_vec(codec.as_ref(), &data);
            if compressed.is_empty() {
                continue;
            }
            let pos = (flip_seed as usize) % compressed.len();
            let bit = ((flip_seed >> 32) % 8) as u8;
            compressed[pos] ^= 1 << bit;
            let fast = decompress_to_vec(codec.as_ref(), &compressed, data.len());
            let slow = reference::decompress(id, &compressed, data.len());
            match (&fast, &slow) {
                (Ok(f), Ok(s)) => prop_assert_eq!(f, s, "{} bit-flipped decode diverged", id),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{} bit-flip accept/reject diverged: fast={:?} slow={:?}",
                                  id, fast.is_ok(), slow.is_ok()),
            }
        }
    }

    /// Pure garbage presented as a compressed stream never panics either
    /// decoder.
    #[test]
    fn garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..1024),
        expected_len in 0usize..4096,
    ) {
        for id in all_registry_ids() {
            let codec = create(id).unwrap();
            let _ = decompress_to_vec(codec.as_ref(), &garbage, expected_len);
            let _ = reference::decompress(id, &garbage, expected_len);
        }
    }
}

/// One LZ4 sequence: literals, then `match_len >= 4` bytes from `dist` back.
struct Seq {
    lits: usize,
    dist: usize,
    match_len: usize,
}

/// Encode `seqs` and a final literals-only sequence of `final_lits` bytes
/// as an LZ4 block; returns the block and what it decodes to.
fn lz4_block(seqs: &[Seq], final_lits: usize) -> (Vec<u8>, Vec<u8>) {
    fn ext(block: &mut Vec<u8>, mut v: usize) {
        while v >= 255 {
            block.push(255);
            v -= 255;
        }
        block.push(v as u8);
    }
    let (mut block, mut plain) = (Vec::new(), Vec::<u8>::new());
    let mut next = 0u8;
    let tail = Seq { lits: final_lits, dist: 0, match_len: 0 };
    for (i, seq) in seqs.iter().chain([&tail]).enumerate() {
        let last = i == seqs.len();
        let code = if last { 0 } else { seq.match_len - 4 };
        block.push((seq.lits.min(15) as u8) << 4 | code.min(15) as u8);
        if seq.lits >= 15 {
            ext(&mut block, seq.lits - 15);
        }
        for _ in 0..seq.lits {
            next = next.wrapping_mul(73).wrapping_add(41);
            block.push(next);
            plain.push(next);
        }
        if last {
            break;
        }
        block.extend_from_slice(&(seq.dist as u16).to_le_bytes());
        if code >= 15 {
            ext(&mut block, code - 15);
        }
        for _ in 0..seq.match_len {
            plain.push(plain[plain.len() - seq.dist]);
        }
    }
    (block, plain)
}

type Outcome = Result<Vec<u8>, CodecError>;

/// Decode with the shipping decoder into a buffer of exactly the capacity
/// it is entitled to, and with the byte-wise reference; both outcomes.
fn decode_both(block: &[u8], expected_len: usize) -> (Outcome, Outcome) {
    let mut out = Vec::with_capacity(expected_len + WILD_SLACK);
    let buffer = out.as_ptr();
    let fast = Lz4Fast::new(1).decompress(block, expected_len, &mut out);
    assert_eq!(out.as_ptr(), buffer, "the decoder outgrew expected_len + WILD_SLACK");
    assert!(out.len() <= expected_len, "the decoder published more than expected_len");
    let mut model = Vec::new();
    let slow = reference::lz4_block(block, expected_len, &mut model);
    (fast.map(|()| out), slow.map(|()| model))
}

/// A 20-byte literal prelude with a first match (so every distance up to
/// 17 has history), the sequence under test, and the final literals.
fn edge_block(lits: usize, dist: usize, match_len: usize, final_lits: usize) -> (Vec<u8>, Vec<u8>) {
    let prelude = Seq { lits: 20, dist: 3, match_len: 5 };
    lz4_block(&[prelude, Seq { lits, dist, match_len }], final_lits)
}

/// Final-literal counts for a sequence producing `seq_out` bytes: 0..=20,
/// and the counts that leave 33, 34 and 35 bytes of output from the start
/// of the sequence to the end of the block (the shortcut needs 34).
fn tails(seq_out: usize) -> impl Iterator<Item = usize> {
    (0..=20).chain([33usize, 34, 35].into_iter().filter_map(move |r| r.checked_sub(seq_out)))
}

#[test]
fn lz4_shortcut_edges_decode_like_the_reference() {
    // Literal nibble 13/14 (shortcut) and 15 (extended: bounded path);
    // match nibble 14 (18 bytes, shortcut) and 15 (extended); distances on
    // both sides of 8 and 16.
    let mut blocks = 0;
    for lits in [0usize, 1, 13, 14, 15, 16, 30] {
        for match_len in [4usize, 17, 18, 19, 20, 40] {
            for dist in 1..=17usize {
                for final_lits in tails(lits + match_len) {
                    let (block, plain) = edge_block(lits, dist, match_len, final_lits);
                    let (fast, slow) = decode_both(&block, plain.len());
                    let what = format!("lits {lits} match {match_len} dist {dist} + {final_lits}");
                    assert_eq!(fast.as_ref(), Ok(&plain), "{what}");
                    assert_eq!(slow.as_ref(), Ok(&plain), "{what}: reference");
                    // The right bytes under the wrong length are an error,
                    // and the same one.
                    for wrong in [plain.len() - 1, plain.len() + 1] {
                        let (fast, slow) = decode_both(&block, wrong);
                        assert!(fast.is_err(), "{what}: expected_len {wrong}");
                        assert_eq!(fast, slow, "{what}: expected_len {wrong}");
                    }
                    blocks += 1;
                }
            }
        }
    }
    assert!(blocks > 15_000, "{blocks} blocks");
}

#[test]
fn lz4_shortcut_edges_truncated_or_flipped_agree_with_the_reference() {
    for lits in [0usize, 14, 15] {
        for match_len in [18usize, 19] {
            for dist in [1usize, 7, 8, 16, 17] {
                for final_lits in [0, 20].into_iter().chain(tails(lits + match_len).skip(21)) {
                    let (block, plain) = edge_block(lits, dist, match_len, final_lits);
                    for cut in 0..block.len() {
                        // (Cutting only an empty final sequence's token
                        // off still decodes, to the same bytes.)
                        let (fast, slow) = decode_both(&block[..cut], plain.len());
                        assert!(fast.as_ref().map_or(true, |out| *out == plain), "cut to {cut}");
                        assert_eq!(fast, slow, "cut to {cut}");
                    }
                    for bit in 0..block.len() * 8 {
                        let mut bad = block.clone();
                        bad[bit / 8] ^= 1 << (bit % 8);
                        // Same bytes or the same typed error: a flipped
                        // literal decodes on both sides, a flipped length
                        // or offset fails on both, for the same reason.
                        let (fast, slow) = decode_both(&bad, plain.len());
                        assert_eq!(fast, slow, "bit {bit} flipped");
                    }
                }
            }
        }
    }
}
