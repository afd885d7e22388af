//! Match finders: the compression-side search engines shared by all
//! LZ-family codecs.
//!
//! Two parsers are provided, occupying the two classic speed/ratio points:
//!
//! * [`greedy_parse`] — single-probe hash table with skip acceleration,
//!   the `lz4`/`lz4fast` strategy: take the first acceptable match, speed
//!   scales with the `accel` parameter.
//! * [`lazy_parse`] — hash chains with bounded depth plus one-position
//!   lazy evaluation, the `lz4hc`/deflate strategy: search harder, prefer
//!   a longer match found one byte later.
//!
//! Both hand each [`Seq`] to a sink the moment it is decided, so a format
//! whose sequences are self-contained (the LZ4 block) is written while the
//! input is parsed; backends that code whole streams collect through
//! [`lazy_seqs`].

use crate::tokens::Seq;

/// Parameters for the match search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// Window size as a power of two; matches must have `dist < 1 << window_log`
    /// (strict, so a 16-bit-offset format can use `window_log = 16`).
    pub window_log: u32,
    /// Minimum match length worth emitting.
    pub min_match: usize,
    /// Maximum match length to emit (backends with length caps set this).
    pub max_match: usize,
    /// Chain probes per position (lazy parser only).
    pub max_chain: u32,
    /// Stop searching once a match of at least this length is found.
    pub nice_len: usize,
    /// Greedy parser skip acceleration: higher = faster, worse ratio.
    pub accel: u32,
}

impl MatchConfig {
    /// Sensible defaults: 64 KiB window, min match 4, unbounded-ish lengths.
    pub fn new(window_log: u32) -> Self {
        MatchConfig {
            window_log,
            min_match: 4,
            max_match: usize::MAX,
            max_chain: 16,
            nice_len: 128,
            accel: 1,
        }
    }

    pub(crate) fn window(&self) -> usize {
        1usize << self.window_log
    }
}

/// The four bytes at `pos` as one little-endian word: a position's hash
/// input and, compared against a candidate's, its prefix-equality test.
#[inline(always)]
fn read_u32(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + 4].try_into().expect("a 4-byte window"))
}

/// Fibonacci hash of a position's first four bytes.
#[inline(always)]
fn hash4(word: u32, table_log: u32) -> usize {
    (word.wrapping_mul(2654435761) >> (32 - table_log)) as usize
}

/// Length of the match between `a` and `b` (`a < b`), of which the first
/// `known` bytes have already compared equal, capped at `limit`.
#[inline(always)]
fn match_len(input: &[u8], a: usize, b: usize, known: usize, limit: usize) -> usize {
    // Compare 8 bytes at a time: one XOR + trailing_zeros per word, via
    // the same unaligned word load the decode hot path uses.
    let max = limit.min(input.len() - b);
    let mut n = known.min(max);
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

/// The whole input as one literals-only sequence (inputs too short to
/// hold a match).
fn all_literals(n: usize, sink: &mut impl FnMut(Seq)) {
    if n > 0 {
        sink(Seq { lit_start: 0, lit_len: n, match_len: 0, dist: 0 });
    }
}

/// Greedy single-probe parse (`lz4fast` strategy), handing each sequence
/// to `sink` as it is found.
///
/// `accel >= 1`: after repeated misses the scan step grows, trading ratio
/// for speed exactly like LZ4's acceleration parameter. The probe hashes
/// four bytes, so a match shorter than four is never reported whatever
/// `min_match` says.
///
/// A position costs one 4-byte load: it is hashed for the table probe and
/// compared with the candidate's four bytes, which rejects a hash
/// collision before the match extension is entered. The same comparison
/// stands in for an "empty slot" test: the table starts out pointing every
/// slot at position 0, and a slot that still reads 0 is either the real
/// entry for position 0 (its four bytes hash here) or fails the
/// comparison — one data-dependent branch per probe where there were two.
pub fn greedy_parse(input: &[u8], cfg: &MatchConfig, mut sink: impl FnMut(Seq)) {
    let n = input.len();
    let min_match = cfg.min_match.max(4);
    if n < min_match + 4 {
        return all_literals(n, &mut sink);
    }

    let table_log = cfg.window_log.clamp(10, 16);
    let mut table = vec![0u32; 1 << table_log];
    // Distances the format can hold are 1..window; `far` is that test as
    // one unsigned compare (a slot reading the probing position itself,
    // distance 0, wraps to the top).
    let far = cfg.window() - 1;
    // LZ4-style acceleration: step = 1 + misses >> accel_shift.
    let accel_shift = 6 / cfg.accel.clamp(1, 6);

    let mut anchor = 0usize; // first un-emitted literal
    let mut pos = 0usize;
    let mut misses = 0u32;
    // Leave room for the final 4-byte hash read and a minimal tail.
    let scan_end = n - min_match;

    while pos <= scan_end {
        let word = read_u32(input, pos);
        let slot = &mut table[hash4(word, table_log)];
        let cand = *slot as usize;
        *slot = pos as u32;

        if (pos - cand).wrapping_sub(1) < far && read_u32(input, cand) == word {
            let len = match_len(input, cand, pos, 4, cfg.max_match);
            if len >= min_match {
                let dist = pos - cand;
                sink(Seq { lit_start: anchor, lit_len: pos - anchor, match_len: len, dist });
                pos += len;
                anchor = pos;
                misses = 0;
                continue;
            }
        }
        misses += 1;
        pos += 1 + (misses >> accel_shift) as usize;
    }

    if anchor < n {
        sink(Seq { lit_start: anchor, lit_len: n - anchor, match_len: 0, dist: 0 });
    }
}

/// Hash chains over a sliding window: `head[h]` is the newest position
/// whose first four bytes hash to `h`, `prev[p & mask]` the one before `p`
/// on the same chain.
struct Chains {
    head: Vec<u32>,
    prev: Vec<u32>,
    mask: usize,
}

impl Chains {
    #[inline]
    fn insert(&mut self, hash: usize, pos: usize) {
        self.prev[pos & self.mask] = self.head[hash];
        self.head[hash] = pos as u32;
    }

    /// Longest match for `pos` among at most `cfg.max_chain` candidates on
    /// its chain; `word`/`hash` are the position's four bytes and their
    /// hash.
    #[inline]
    fn best_match(
        &self,
        input: &[u8],
        cfg: &MatchConfig,
        pos: usize,
        word: u32,
        hash: usize,
    ) -> Option<(usize, usize)> {
        let window = self.mask + 1;
        let prefix = if cfg.min_match >= 4 { 4 } else { 0 };
        let mut cand = self.head[hash];
        let mut best_len = cfg.min_match - 1;
        let mut best_dist = 0usize;
        let mut depth = cfg.max_chain;
        while cand != u32::MAX && depth > 0 {
            let c = cand as usize;
            if pos - c >= window {
                break;
            }
            // Quick rejects: the byte just past the current best, then the
            // four-byte prefix (a candidate that differs there is a hash
            // collision and cannot reach `min_match >= 4`).
            if (best_len == 0
                || (pos + best_len < input.len() && input[c + best_len] == input[pos + best_len]))
                && (prefix == 0 || read_u32(input, c) == word)
            {
                let len = match_len(input, c, pos, prefix, cfg.max_match);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - c;
                    if len >= cfg.nice_len {
                        break;
                    }
                }
            }
            cand = self.prev[c & self.mask];
            depth -= 1;
        }
        (best_len >= cfg.min_match).then_some((best_len, best_dist))
    }
}

/// Hash-chain lazy parse (`lz4hc`/deflate strategy), handing each
/// sequence to `sink` as it is found.
///
/// Maintains per-position chains bounded by `cfg.max_chain`, and defers a
/// match by one byte when the next position yields a strictly longer one.
/// Each position is loaded and hashed once: the word feeds the chain
/// probe, the prefix-equality reject inside it and the insert.
pub fn lazy_parse(input: &[u8], cfg: &MatchConfig, mut sink: impl FnMut(Seq)) {
    let n = input.len();
    if n < cfg.min_match + 4 {
        return all_literals(n, &mut sink);
    }

    let table_log = (cfg.window_log + 1).clamp(12, 17);
    // prev chain indexed by position modulo window. Clamp the window to the
    // input size so big-window configs don't allocate 4 MiB chains for
    // small files (distances can never exceed the input length anyway).
    let window = cfg.window().min(n.next_power_of_two());
    let mut chains = Chains {
        head: vec![u32::MAX; 1 << table_log],
        prev: vec![u32::MAX; window],
        mask: window - 1,
    };
    let hashed = |pos: usize| {
        let word = read_u32(input, pos);
        (word, hash4(word, table_log))
    };

    let scan_end = n - cfg.min_match.max(4);
    let mut anchor = 0usize;
    let mut pos = 0usize;
    while pos <= scan_end {
        let (word, hash) = hashed(pos);
        let found = chains.best_match(input, cfg, pos, word, hash);
        chains.insert(hash, pos);
        let Some((mut len, mut dist)) = found else {
            pos += 1;
            continue;
        };

        // Lazy evaluation: would starting one byte later give a longer
        // match? `next` keeps the hash of a position that was probed but
        // not yet inserted, for the insert loop below.
        let mut next = None;
        while pos < scan_end && len < cfg.nice_len {
            let (word, hash) = hashed(pos + 1);
            match chains.best_match(input, cfg, pos + 1, word, hash) {
                Some((len2, dist2)) if len2 > len + 1 => {
                    // Defer: current byte becomes a literal.
                    chains.insert(hash, pos + 1);
                    pos += 1;
                    len = len2;
                    dist = dist2;
                }
                _ => {
                    next = Some(hash);
                    break;
                }
            }
        }

        sink(Seq { lit_start: anchor, lit_len: pos - anchor, match_len: len, dist });
        // Insert positions covered by the match (sparsely for speed on
        // long matches).
        let match_end = pos + len;
        let insert_end = match_end.min(scan_end + 1);
        let step = if len > 512 { 8 } else { 1 };
        let mut p = pos + 1;
        while p < insert_end {
            let hash = next.take().unwrap_or_else(|| hashed(p).1);
            chains.insert(hash, p);
            p += step;
        }
        pos = match_end;
        anchor = pos;
    }

    if anchor < n {
        sink(Seq { lit_start: anchor, lit_len: n - anchor, match_len: 0, dist: 0 });
    }
}

/// [`lazy_parse`] collected into a list, for the backends that entropy-code
/// whole streams and so need the parse before they can emit.
pub fn lazy_seqs(input: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
    let mut seqs = Vec::new();
    lazy_parse(input, cfg, |seq| seqs.push(seq));
    seqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::parse_reconstructs;

    fn cfg() -> MatchConfig {
        MatchConfig::new(16)
    }

    fn greedy_seqs(input: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
        let mut seqs = Vec::new();
        greedy_parse(input, cfg, |seq| seqs.push(seq));
        seqs
    }

    #[test]
    fn greedy_reconstructs_repetitive() {
        let input: Vec<u8> = b"the quick brown fox ".repeat(100);
        let seqs = greedy_seqs(&input, &cfg());
        assert!(parse_reconstructs(&input, &seqs));
        let matched: usize = seqs.iter().map(|s| s.match_len).sum();
        assert!(matched > input.len() / 2, "should find many matches");
    }

    #[test]
    fn lazy_reconstructs_repetitive() {
        let input: Vec<u8> = b"abcdefgh".repeat(500);
        let seqs = lazy_seqs(&input, &cfg());
        assert!(parse_reconstructs(&input, &seqs));
    }

    #[test]
    fn lazy_no_worse_than_greedy_on_text() {
        let input: Vec<u8> =
            b"she sells sea shells by the sea shore, the shells she sells are sea shells"
                .repeat(40);
        let g: usize = greedy_seqs(&input, &cfg()).iter().map(|s| s.lit_len).sum();
        let l: usize = lazy_seqs(&input, &cfg()).iter().map(|s| s.lit_len).sum();
        // Lazy parsing is a heuristic; allow a tiny slack but it must not
        // be systematically worse.
        assert!(l <= g + 8, "lazy literals {l} should be <= greedy literals {g} (+8 slack)");
    }

    #[test]
    fn tiny_inputs_are_all_literals() {
        for n in 0..12usize {
            let input: Vec<u8> = (0..n as u8).collect();
            let g = greedy_seqs(&input, &cfg());
            let l = lazy_seqs(&input, &cfg());
            assert!(parse_reconstructs(&input, &g), "greedy n={n}");
            assert!(parse_reconstructs(&input, &l), "lazy n={n}");
        }
    }

    #[test]
    fn incompressible_input_reconstructs() {
        // Pseudo-random bytes: almost no matches, must still round-trip.
        let mut x = 0x12345678u32;
        let input: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        for seqs in [greedy_seqs(&input, &cfg()), lazy_seqs(&input, &cfg())] {
            assert!(parse_reconstructs(&input, &seqs));
        }
    }

    #[test]
    fn all_zero_input_compresses_to_one_long_match() {
        let input = vec![0u8; 100_000];
        let seqs = lazy_seqs(&input, &cfg());
        assert!(parse_reconstructs(&input, &seqs));
        let lit: usize = seqs.iter().map(|s| s.lit_len).sum();
        assert!(lit < 64, "zeros should be nearly all match: {lit} literals");
    }

    #[test]
    fn window_limit_respected() {
        let mut cfg = MatchConfig::new(10); // 1 KiB window
        cfg.max_chain = 64;
        // Repeat a block at distance 2 KiB: outside the window, must not match.
        let block: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        let mut input = block.clone();
        input.extend_from_slice(&block);
        for seqs in [greedy_seqs(&input, &cfg), lazy_seqs(&input, &cfg)] {
            assert!(parse_reconstructs(&input, &seqs));
            for s in &seqs {
                assert!(s.dist < 1 << 10, "dist {} exceeds window", s.dist);
            }
        }
    }

    #[test]
    fn max_match_cap_respected() {
        let mut c = cfg();
        c.max_match = 100;
        let input = vec![7u8; 10_000];
        let seqs = lazy_seqs(&input, &c);
        assert!(parse_reconstructs(&input, &seqs));
        for s in &seqs {
            assert!(s.match_len <= 100);
        }
    }

    #[test]
    fn min_match_respected() {
        let mut c = cfg();
        c.min_match = 8;
        let input: Vec<u8> = b"abcdXabcdYabcdZ".repeat(30);
        for seqs in [greedy_seqs(&input, &c), lazy_seqs(&input, &c)] {
            assert!(parse_reconstructs(&input, &seqs));
            for s in &seqs {
                assert!(s.match_len == 0 || s.match_len >= 8);
            }
        }
    }
}
