//! Encode identity: the LZ4 encoders write their block while the parse is
//! still running, over parsers that hand sequences to a sink, and must
//! produce *byte-for-byte* what the retained collect-then-emit form
//! (`reference::lz4_two_pass`: the list-returning parsers and the block
//! emitter as they were) produces, for every `lz4fast`/`lz4hc` id the
//! registry accepts — and every output must decode to the input through
//! both the word-wide decoder and the byte-wise one.
//!
//! The parsers themselves are diffed sequence for sequence against the
//! retained ones over a grid of settings, and the backends that now
//! collect through the sink (lzsse8, zling, zstd-lite, lzma-lite) are
//! pinned by digests of what they emitted for a fixed corpus at the commit
//! before the rewrite.

use fanstore_compress::crc32::crc32;
use fanstore_compress::matchfinder::{greedy_parse, lazy_seqs, MatchConfig};
use fanstore_compress::registry::create;
use fanstore_compress::{compress_to_vec, decompress_to_vec, reference, CodecFamily, CodecId};

/// Every `lz4fast` acceleration and `lz4hc` level the registry accepts.
fn lz4_ids() -> Vec<CodecId> {
    let fast = (1..=32).map(|accel| CodecId::new(CodecFamily::Lz4Fast, accel));
    let hc = (1..=12).map(|level| CodecId::new(CodecFamily::Lz4Hc, level));
    let ids: Vec<CodecId> = fast.chain(hc).collect();
    assert!(ids.iter().all(|&id| create(id).is_ok()), "the registry accepts every id");
    for beyond in [CodecId::new(CodecFamily::Lz4Fast, 33), CodecId::new(CodecFamily::Lz4Hc, 13)] {
        assert!(create(beyond).is_err(), "{beyond} is past the registry's last level");
    }
    ids
}

/// splitmix64: the corpus must not change with the `rand` shim.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// `len` bytes stitched from short segments of noise, copies of earlier
/// output at every distance, byte runs and small-alphabet text: literal
/// runs and matches of all the lengths the token format distinguishes.
fn shaped(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng(seed);
    let mut out = Vec::with_capacity(len + 300);
    while out.len() < len {
        let n = 1 + rng.below(300);
        match rng.below(4) {
            0 => out.extend(rng.bytes(n)),
            1 if !out.is_empty() => {
                let from = out.len() - 1 - rng.below(out.len());
                for i in 0..n {
                    out.push(out[from + i]);
                }
            }
            2 => out.extend(std::iter::repeat_n(rng.next() as u8, n)),
            _ => out.extend((0..n).map(|_| b"etaoin shr\n"[rng.below(11)])),
        }
    }
    out.truncate(len);
    out
}

/// The sequences of an LZ4 block as `(literals, match length, distance)`,
/// so an edge case can assert that the block it built really holds the
/// sequence it was built for. The final sequence reads `(literals, 0, 0)`.
fn sequences(block: &[u8]) -> Vec<(usize, usize, usize)> {
    let mut i = 0;
    let mut seqs = Vec::new();
    let ext = |i: &mut usize, nibble: usize| {
        let mut v = nibble;
        if nibble == 15 {
            loop {
                let b = block[*i];
                *i += 1;
                v += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        v
    };
    while i < block.len() {
        let token = block[i];
        i += 1;
        let lits = ext(&mut i, (token >> 4) as usize);
        i += lits;
        if i == block.len() {
            seqs.push((lits, 0, 0));
            break;
        }
        let dist = u16::from_le_bytes([block[i], block[i + 1]]) as usize;
        i += 2;
        seqs.push((lits, ext(&mut i, (token & 15) as usize) + 4, dist));
    }
    seqs
}

/// The fused encoder's block for `data`, after checking it against the
/// oracle and through both decoders.
fn identical(id: CodecId, data: &[u8]) -> Vec<u8> {
    let codec = create(id).unwrap();
    let fused = compress_to_vec(codec.as_ref(), data);
    let two_pass = reference::lz4_two_pass(id, data).unwrap();
    assert!(fused == two_pass, "{id}: fused != two-pass on {} bytes", data.len());
    assert!(fused.len() <= codec.max_compressed_len(data.len()), "{id}: bound exceeded");
    let fast = decompress_to_vec(codec.as_ref(), &fused, data.len());
    assert!(fast.as_deref() == Ok(data), "{id}: lz4::decode_block on {} bytes", data.len());
    let mut slow = Vec::new();
    reference::lz4_block(&fused, data.len(), &mut slow)
        .unwrap_or_else(|e| panic!("{id}: reference::lz4_block on {} bytes: {e}", data.len()));
    assert!(slow == data, "{id}: reference::lz4_block on {} bytes", data.len());
    fused
}

#[test]
fn every_lz4_id_matches_the_two_pass_oracle_on_all_sizes() {
    let ids = lz4_ids();
    let mut rng = Rng(0xE7C0DE);
    // Every size below the parsers' cut-over, then sizes across 0..=70 KiB
    // (past the 64 KiB window), each through a rotating subset of the ids
    // so that every id sees small, mid and window-crossing inputs.
    let mut sizes: Vec<usize> = (0..=24).collect();
    sizes.extend((0..40).map(|_| rng.below(70 << 10)));
    sizes.extend([16 << 10, (64 << 10) - 1, 64 << 10, (64 << 10) + 1, 70 << 10]);
    for (round, &size) in sizes.iter().enumerate() {
        let data = shaped(rng.next(), size);
        for id in ids.iter().skip(round % 4).step_by(4) {
            identical(*id, &data);
        }
    }
    for &id in &ids {
        identical(id, &shaped(rng.next(), 20_000));
    }
}

#[test]
fn edges_of_the_token_format() {
    let fast = CodecId::new(CodecFamily::Lz4Fast, 1);
    let both = [fast, CodecId::new(CodecFamily::Lz4Hc, 6)];
    let mut rng = Rng(0xED6E5);

    // Inputs too short to hold a match: one literals-only sequence.
    for n in 0..8 {
        for id in both {
            let block = identical(id, &vec![0u8; n]);
            assert_eq!(sequences(&block), if n == 0 { vec![] } else { vec![(n, 0, 0)] });
        }
    }

    // A match that runs to the last byte: no trailing literals, and the
    // block ends on a match.
    let head = rng.bytes(40);
    let to_the_end = [&head[..], &head[..30]].concat();
    for id in both {
        assert_eq!(sequences(&identical(id, &to_the_end)), vec![(40, 30, 40)], "{id}");
    }

    // The farthest offset the format holds, and one past it.
    for (dist, reachable) in [(65_535usize, true), (65_536, false)] {
        let key = rng.bytes(64);
        let data = [&key[..], &rng.bytes(dist - 64), &key[..], &rng.bytes(40)].concat();
        for id in both {
            let seqs = sequences(&identical(id, &data));
            let hit = seqs.iter().any(|&(_, len, d)| d == dist && len >= 32);
            assert_eq!(hit, reachable, "{id}: a match at distance {dist}");
            assert!(seqs.iter().all(|&(_, _, d)| d <= 65_535), "{id}");
        }
    }

    // `lz4fast` steps over positions once a literal run passes 64 misses,
    // so it finds a match a few bytes late; the exact shape is asserted
    // where it scans every position, and for `lz4hc`, which always does.
    // The emitter under test is the same function for both.
    let exact = |id: CodecId, literals: usize| id != fast || literals < 64;

    // Literal runs around the nibble (14 | 15) and a two-byte extension
    // (270 = 15 + 255 + 0).
    for lits in [14usize, 15, 16, 269, 270, 271] {
        let key = rng.bytes(32);
        let data = [&key[..], &key[..], &rng.bytes(lits), &key[..]].concat();
        for id in both {
            let seqs = sequences(&identical(id, &data));
            if exact(id, lits) {
                assert_eq!(seqs, vec![(32, 32, 32), (lits, 32, 32 + lits)], "{id}: {lits}");
            }
        }
    }

    // Match lengths around the nibble (18 | 19) and a two-byte extension
    // (274 = 4 + 15 + 255 + 0). The bytes behind the two copies differ, so
    // the match cannot run on.
    for len in [18usize, 19, 20, 273, 274, 275] {
        let key = rng.bytes(len);
        let data = [&key[..], &[0x11, 0x22, 0x33, 0x44, 0x55], &key[..], &[0xEE; 3]].concat();
        for id in both {
            let seqs = sequences(&identical(id, &data));
            if exact(id, len + 5) {
                assert_eq!(seqs, vec![(len + 5, len, len + 5), (3, 0, 0)], "{id}: {len}");
            }
        }
    }

    // One long run, and nothing to find at all.
    for id in lz4_ids() {
        let zeros = identical(id, &vec![0u8; 70 << 10]);
        assert!(zeros.len() < 400, "{id}: {} bytes for 70 KiB of zeros", zeros.len());
        let noise = rng.bytes(30_000);
        assert!(identical(id, &noise).len() > noise.len(), "{id}: noise only grows");
    }
}

/// The sink-driven parsers find the sequences the list-returning ones
/// found, for windows smaller and larger than the input, match lengths
/// capped and not, shallow and deep chains, and `min_match` on both sides
/// of the four bytes the hash covers (the greedy probe cannot see a
/// shorter match, so it is only asked for four and up).
#[test]
fn parsers_find_the_sequences_the_retained_parsers_found() {
    let mut rng = Rng(0x9A25E);
    let inputs: Vec<Vec<u8>> = [0usize, 7, 8, 11, 12, 100, 5_000, 40_000, 70_000]
        .iter()
        .map(|&n| shaped(rng.next(), n))
        .chain([vec![0u8; 3_000], b"abcdXabcdYabcdZ".repeat(200)])
        .collect();
    for window_log in [10u32, 16, 20] {
        for (min_match, max_match) in [(3usize, 273usize), (4, usize::MAX), (4, 100), (8, 258)] {
            for (max_chain, nice_len, accel) in [(1u32, 8usize, 1u32), (16, 64, 4), (256, 258, 9)] {
                let cfg =
                    MatchConfig { window_log, min_match, max_match, max_chain, nice_len, accel };
                for input in &inputs {
                    let n = input.len();
                    assert!(
                        lazy_seqs(input, &cfg) == reference::lazy_parse(input, &cfg),
                        "lazy, {n} bytes, {cfg:?}"
                    );
                    if min_match >= 4 {
                        let mut greedy = Vec::new();
                        greedy_parse(input, &cfg, |seq| greedy.push(seq));
                        assert!(
                            greedy == reference::greedy_parse(input, &cfg),
                            "greedy, {n} bytes, {cfg:?}"
                        );
                    }
                }
            }
        }
    }
}

/// CRC-32 over everything `id` emits for the golden corpus.
fn digest(id: CodecId) -> u32 {
    let sizes = [0usize, 5, 13, 300, 4_096, 16_384, 40_000, 65_536, 71_680];
    let corpus: Vec<Vec<u8>> =
        sizes.iter().enumerate().map(|(i, &n)| shaped(0x601D + i as u64, n)).collect();
    let codec = create(id).unwrap();
    let mut emitted = Vec::new();
    for data in &corpus {
        codec.compress(data, &mut emitted);
    }
    crc32(&emitted)
}

/// What the backends that entropy-code a collected parse emitted before
/// the parse reached them through a sink; `lzma-3` is the one parser
/// configuration in the registry with `min_match < 4`, where the prefix
/// test must stand aside. A change here is a change to stored bytes.
#[test]
fn collecting_backends_emit_the_bytes_they_emitted_before() {
    for (family, level, golden) in [
        (CodecFamily::Lzsse8, 2, 0xc47e_0c3e_u32),
        (CodecFamily::Zling, 2, 0x55fe_f1b5),
        (CodecFamily::ZstdLite, 6, 0xd8fa_9970),
        (CodecFamily::LzmaLite, 3, 0x82cb_a703),
    ] {
        let id = CodecId::new(family, level);
        assert_eq!(digest(id), golden, "{id}");
    }
}
