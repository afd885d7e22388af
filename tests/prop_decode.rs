//! Differential decode properties: the word-wide optimized decoders must
//! produce *byte-for-byte* the same output as the retained byte-wise
//! decoders in `fanstore_repro::compress::reference`, for every registry
//! codec configuration, on random and adversarial streams — and corrupt
//! streams (truncated or bit-flipped) or valid streams under a wrong
//! expected length must error identically-or-gracefully on both, never
//! panic or read out of bounds.
//!
//! The LZ4 block decoder additionally has a shortcut path that no
//! compressor output is guaranteed to steer through every edge of, so the
//! second half of this file builds blocks by hand: every combination of
//! literal/match nibble, match distance and distance from the end of the
//! block that decides between the shortcut and the bounded path, plus
//! every truncation and bit flip of a thinner set of them. lzf and lzsse8
//! get the same treatment at the edge of their 16-byte literal store.

use fanstore_repro::compress::copy::WILD_SLACK;
use fanstore_repro::compress::lz4::Lz4Fast;
use fanstore_repro::compress::lzf::Lzf;
use fanstore_repro::compress::lzsse::Lzsse8;
use fanstore_repro::compress::registry::create;
use fanstore_repro::compress::{
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

    /// A valid stream under a wrong expected length is an error on both
    /// sides, and the same one: never a panic, never a short or padded
    /// success. No other property hands a decoder a valid stream and a
    /// wrong length, which is where a missing check before a write would
    /// reach one of `copy::Cursor`'s asserts. Huffman and lzma streams
    /// carry no end marker (the frame's length ends them), so there a
    /// wrong length need only not panic and agree with the reference.
    #[test]
    fn wrong_expected_len_errors_like_the_reference(data in data_strategy()) {
        let wrong = [data.len().checked_sub(1), Some(data.len() + 1), Some(0)];
        for id in all_registry_ids() {
            let codec = create(id).unwrap();
            let compressed = compress_to_vec(codec.as_ref(), &data);
            let ended_by_length =
                matches!(id.family(), Some(CodecFamily::Huffman | CodecFamily::LzmaLite));
            for expected_len in wrong.into_iter().flatten().filter(|&n| n != data.len()) {
                let fast = decompress_to_vec(codec.as_ref(), &compressed, expected_len);
                let slow = reference::decompress(id, &compressed, expected_len);
                prop_assert!(
                    fast.is_err() || ended_by_length,
                    "{} accepted {} bytes as {}", id, data.len(), expected_len
                );
                prop_assert_eq!(fast, slow, "{} under expected_len {}", id, expected_len);
            }
        }
    }

    /// The LZ4 family's prefix decode ([`Codec::decompress_prefix`], what
    /// a range read asks of a chunk) is the full decode's first `stop`
    /// bytes, for stops 0, 1, `expected_len`, a seeded one and either side
    /// of sequence edges, where the decoder leaves its loop. On a
    /// truncated or bit-flipped stream it answers with what the full
    /// decode produced before failing, or with the full decode's error,
    /// and with that error whenever `stop` lies past the damage; never
    /// with a panic.
    #[test]
    fn lz4_prefix_decode_is_the_full_decode_cut_at_stop(
        data in data_strategy(),
        stop_seed in any::<u64>(),
        damage_seed in any::<u64>(),
    ) {
        let n = data.len();
        for id in [CodecId::new(CodecFamily::Lz4Fast, 1), CodecId::new(CodecFamily::Lz4Hc, 9)] {
            let codec = create(id).unwrap();
            let compressed = compress_to_vec(codec.as_ref(), &data);
            let ends = sequence_ends(&compressed);
            let mut stops = vec![0, 1.min(n), n, stop_seed as usize % (n + 1)];
            for &end in ends.iter().step_by(ends.len().div_ceil(8).max(1)) {
                stops.extend([end.saturating_sub(1), end, (end + 1).min(n)]);
            }
            for &stop in &stops {
                let got = prefix(codec.as_ref(), &compressed, n, stop);
                prop_assert_eq!(got, Ok(data[..stop].to_vec()), "{} stop {} of {}", id, stop, n);
            }
            let cut = compressed[..damage_seed as usize % compressed.len()].to_vec();
            let mut flipped = compressed.clone();
            let at = (damage_seed >> 8) as usize % flipped.len();
            flipped[at] ^= 1 << (damage_seed % 8);
            for (what, bad) in [("cut", cut), ("flipped", flipped)] {
                // The full decode, and what it had produced when it stopped.
                let mut produced = Vec::new();
                let full = codec.decompress(&bad, n, &mut produced);
                for &stop in &stops {
                    let got = prefix(codec.as_ref(), &bad, n, stop);
                    match (&full, got) {
                        (_, Ok(p)) => {
                            prop_assert!(stop <= produced.len(), "{} {}: stop {} past the damage decoded", id, what, stop);
                            prop_assert_eq!(&p[..], &produced[..stop], "{} {}: stop {}", id, what, stop);
                        }
                        (Err(e), Err(g)) => prop_assert_eq!(&g, e, "{} {}: stop {}", id, what, stop),
                        (Ok(()), Err(g)) => prop_assert!(false, "{} {}: stop {} failed with {:?}, the full decode did not", id, what, stop, g),
                    }
                }
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

/// [`Codec::decompress_prefix`] into a fresh buffer.
fn prefix(codec: &dyn Codec, input: &[u8], expected_len: usize, stop: usize) -> Outcome {
    let mut out = Vec::new();
    codec.decompress_prefix(input, expected_len, stop, &mut out).map(|()| out)
}

/// The output offsets at which the sequences of a valid LZ4 block end.
fn sequence_ends(block: &[u8]) -> Vec<usize> {
    let ext = |i: &mut usize| {
        let mut v = 0;
        loop {
            let b = block[*i];
            *i += 1;
            v += b as usize;
            if b != 255 {
                return v;
            }
        }
    };
    let (mut i, mut produced, mut ends) = (0, 0, Vec::new());
    while i < block.len() {
        let token = block[i];
        i += 1;
        let mut lits = (token >> 4) as usize;
        if lits == 15 {
            lits += ext(&mut i);
        }
        (i, produced) = (i + lits, produced + lits);
        if i < block.len() {
            i += 2;
            let mut match_len = (token & 0x0f) as usize;
            if match_len == 15 {
                match_len += ext(&mut i);
            }
            produced += match_len + 4;
        }
        ends.push(produced);
    }
    ends
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

/// A byte-wise reference decoder, as `reference` exports them.
type Reference = fn(&[u8], usize, &mut Vec<u8>) -> Result<(), CodecError>;

/// Decode with the shipping decoder into a buffer of exactly the capacity
/// it is entitled to, and with the byte-wise reference; both outcomes. A
/// success of the wrong length is the error `decompress_to_vec` makes of
/// it (lzf leaves that check to its caller).
fn decode_with(
    codec: &dyn Codec,
    reference: Reference,
    block: &[u8],
    expected_len: usize,
) -> (Outcome, Outcome) {
    let mut out = Vec::with_capacity(expected_len + WILD_SLACK);
    let buffer = out.as_ptr();
    let fast = codec.decompress(block, expected_len, &mut out);
    assert_eq!(out.as_ptr(), buffer, "the decoder outgrew expected_len + WILD_SLACK");
    assert!(out.len() <= expected_len, "the decoder published more than expected_len");
    let mut model = Vec::new();
    let slow = reference(block, expected_len, &mut model);
    let exact = |decoded: Result<(), CodecError>, out: Vec<u8>| match decoded {
        Ok(()) if out.len() != expected_len => {
            Err(CodecError::LengthMismatch { expected: expected_len, actual: out.len() })
        }
        decoded => decoded.map(|()| out),
    };
    (exact(fast, out), exact(slow, model))
}

/// [`decode_with`] the LZ4 block decoder.
fn decode_both(block: &[u8], expected_len: usize) -> (Outcome, Outcome) {
    decode_with(&Lz4Fast::new(1), reference::lz4_block, block, expected_len)
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

/// A hand-built block and the plain bytes it decodes to.
#[derive(Default)]
struct Built {
    block: Vec<u8>,
    plain: Vec<u8>,
    next: u8,
}

impl Built {
    /// `n` literal bytes, no two neighbours alike, so a misplaced copy shows.
    fn literals(&mut self, n: usize) {
        for _ in 0..n {
            self.next = self.next.wrapping_mul(73).wrapping_add(41);
            self.block.push(self.next);
            self.plain.push(self.next);
        }
    }

    fn copy(&mut self, dist: usize, len: usize) {
        for _ in 0..len {
            self.plain.push(self.plain[self.plain.len() - dist]);
        }
    }
}

/// An lzsse8 block: a prelude (20 literals, then 8 bytes from 3 back), a
/// run of `lits` literals, and `trail` more input bytes. Those are a match
/// of 8 from 9 back (two offset bytes and a length byte), cut short when
/// `trail < 3`, then a final run of `trail - 4` literals behind its length
/// byte. Returns the block, its plain bytes and whether it is whole.
fn lzsse8_edge_block(lits: usize, trail: usize) -> (Built, bool) {
    let mut b = Built::default();
    b.block.push(20);
    b.literals(20);
    b.block.extend([3, 0, 0]);
    b.copy(3, 8);
    b.block.push(lits as u8);
    b.literals(lits);
    if trail == 0 {
        return (b, true);
    }
    b.block.extend(&[9, 0, 0][..trail.min(3)]);
    if trail < 3 {
        return (b, false);
    }
    b.copy(9, 8);
    if trail > 3 {
        b.block.push((trail - 4) as u8);
        b.literals(trail - 4);
    }
    (b, true)
}

/// An lzf block: a prelude (20 literals, then 3 bytes from 3 back), a run
/// of `lits >= 1` literals (a control byte encodes runs of 1..=32), and
/// `trail` more input bytes. Those are a match of 4 from 9 back (control
/// and offset byte), cut short when `trail < 2`, then a final run of
/// `trail - 3` literals behind its control byte, cut short when that run
/// would be empty. Returns the block, its plain bytes and whether it is
/// whole.
fn lzf_edge_block(lits: usize, trail: usize) -> (Built, bool) {
    let mut b = Built::default();
    b.block.push(19);
    b.literals(20);
    b.block.extend([1 << 5, 2]);
    b.copy(3, 3);
    b.block.push((lits - 1) as u8);
    b.literals(lits);
    if trail == 0 {
        return (b, true);
    }
    b.block.extend(&[2 << 5, 8][..trail.min(2)]);
    if trail < 2 {
        return (b, false);
    }
    b.copy(9, 4);
    if trail == 2 {
        return (b, true);
    }
    if trail == 3 {
        b.block.push(0);
        return (b, false);
    }
    b.block.push((trail - 4) as u8);
    b.literals(trail - 3);
    (b, true)
}

/// lzf, lzsse8 (and zstd_lite) copy a run of up to 16 literals as one
/// 16-byte store while 16 source bytes remain from its start. Runs of
/// 0..=17 literals with 0..=17 input bytes behind them straddle both
/// limits; each block decodes like the byte-wise reference under its own
/// length and one byte either side, and only a whole block under its own
/// length decodes at all.
#[test]
fn wild_literal_edges_decode_like_the_reference() {
    type Edge = fn(usize, usize) -> (Built, bool);
    let cases: [(&dyn Codec, Reference, Edge, usize); 2] = [
        (&Lzf::new(1), reference::lzf, lzf_edge_block, 1),
        (&Lzsse8::new(1), reference::lzsse8, lzsse8_edge_block, 0),
    ];
    let mut blocks = 0;
    for (codec, reference, edge_block, min_lits) in cases {
        for lits in min_lits..=17 {
            for trail in 0..=17 {
                let (Built { block, plain, .. }, whole) = edge_block(lits, trail);
                for expected_len in [plain.len() - 1, plain.len(), plain.len() + 1] {
                    let (fast, slow) = decode_with(codec, reference, &block, expected_len);
                    let what = format!(
                        "{}: {lits} literals + {trail} bytes, expected_len {expected_len}",
                        codec.name()
                    );
                    if whole && expected_len == plain.len() {
                        assert_eq!(fast.as_ref(), Ok(&plain), "{what}");
                    } else {
                        assert!(fast.is_err(), "{what}");
                    }
                    assert_eq!(fast, slow, "{what}");
                }
                blocks += 1;
            }
        }
    }
    assert_eq!(blocks, 17 * 18 + 18 * 18);
}
