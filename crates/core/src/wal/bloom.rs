//! Per-segment bloom filters: negative lookups skip segment data.
//!
//! A flushed segment is immutable, so its filter is built once from the
//! exact key set and sized for a configured false-positive target. Probe
//! `i` is derived by double hashing (`h1 + i·h2`) *re-mixed* through a
//! 64-bit finaliser before the modulo: plain double hashing leaves the
//! probes on an arithmetic progression, which at the tiny bit arrays of
//! small segments correlates probes across keys and inflates the FP rate
//! orders of magnitude past the textbook `(1 - e^{-kn/m})^k`. The mixed
//! probes behave as independent hashes, so the property tests can hold a
//! 2x bound on the configured target even for few-key filters.
//!
//! Serialisation is a fixed little-endian header plus the bit array;
//! integrity is the enclosing segment's CRC (recorded in the WAL
//! manifest), so the filter carries no checksum of its own.

use crate::framing::{Malformed, Reader};

/// A fixed-size bloom filter over string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    /// Number of hash probes per key.
    k: u32,
    /// Bit-array length in bits.
    nbits: u64,
    /// Keys inserted so far.
    nkeys: u64,
    /// The bit array, 64 bits per word.
    words: Vec<u64>,
}

/// Serialised header: `k u32 | nbits u64 | nkeys u64`.
const HEADER: usize = 4 + 8 + 8;

/// FNV-1a over `key`, seeded so the two probe hashes are independent.
fn hash(key: &str, seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed.wrapping_mul(0x9E3779B97F4A7C15);
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    // Finalise (splitmix64): FNV alone clusters on short common-prefix
    // keys, which double hashing would inherit.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^ (h >> 31)
}

/// Bit index for probe `i`: double hashing re-mixed so consecutive
/// probes don't sit on an arithmetic progression (see module docs).
fn probe(h1: u64, h2: u64, i: u64, nbits: u64) -> u64 {
    let mut x = h1.wrapping_add(i.wrapping_mul(h2));
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 32;
    x % nbits
}

impl BloomFilter {
    /// Size a filter for `expected` keys at false-positive rate `fp`
    /// (clamped to a sane range). The optimal bit budget is
    /// `m = -n·ln p / (ln 2)²` with `k = (m/n)·ln 2` probes.
    pub fn with_capacity(expected: usize, fp: f64) -> Self {
        let n = expected.max(1) as f64;
        let p = fp.clamp(1e-6, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let nbits = ((-n * p.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64;
        let k = ((nbits as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        BloomFilter { k, nbits, nkeys: 0, words: vec![0; nbits.div_ceil(64) as usize] }
    }

    /// Build from an exact key set (the segment flush path).
    pub fn from_keys<'a, I: IntoIterator<Item = &'a str>>(
        keys: I,
        expected: usize,
        fp: f64,
    ) -> Self {
        let mut b = Self::with_capacity(expected, fp);
        for key in keys {
            b.insert(key);
        }
        b
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &str) {
        let h1 = hash(key, 0);
        let h2 = hash(key, 1) | 1; // odd stride so probes cover the array
        for i in 0..u64::from(self.k) {
            let bit = probe(h1, h2, i, self.nbits);
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.nkeys += 1;
    }

    /// Whether the key *may* be present (never a false negative).
    pub fn contains(&self, key: &str) -> bool {
        let h1 = hash(key, 0);
        let h2 = hash(key, 1) | 1;
        (0..u64::from(self.k)).all(|i| {
            let bit = probe(h1, h2, i, self.nbits);
            self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Keys inserted.
    pub fn len(&self) -> u64 {
        self.nkeys
    }

    /// True when no keys were inserted.
    pub fn is_empty(&self) -> bool {
        self.nkeys == 0
    }

    /// Serialised size in bytes.
    pub fn byte_len(&self) -> usize {
        HEADER + self.words.len() * 8
    }

    /// Serialise (header + bit array, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.nbits.to_le_bytes());
        out.extend_from_slice(&self.nkeys.to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decode a filter serialised by [`BloomFilter::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, crate::FsError> {
        let parse = || -> Result<Self, Malformed> {
            let mut r = Reader::new(buf);
            let (k, nbits, nkeys) = (r.u32()?, r.u64()?, r.u64()?);
            let nwords = usize::try_from(nbits.div_ceil(64)).unwrap_or(usize::MAX);
            if k == 0 || nbits == 0 {
                return Err(r.fail("inconsistent geometry"));
            }
            let mut words = Vec::with_capacity(r.fits(nwords, 8)?);
            for _ in 0..nwords {
                words.push(r.u64()?);
            }
            r.finish()?;
            Ok(BloomFilter { k, nbits, nkeys, words })
        };
        parse().map_err(|e| e.corrupt("bloom"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives_basics() {
        let keys: Vec<String> = (0..1000).map(|i| format!("data/file-{i}.bin")).collect();
        let b = BloomFilter::from_keys(keys.iter().map(String::as_str), keys.len(), 0.01);
        for k in &keys {
            assert!(b.contains(k), "inserted key {k} must be present");
        }
    }

    #[test]
    fn fp_rate_near_target() {
        let n = 10_000usize;
        let target = 0.01;
        let b = BloomFilter::from_keys(
            (0..n).map(|i| format!("k{i}")).collect::<Vec<_>>().iter().map(String::as_str),
            n,
            target,
        );
        let fps = (0..n).filter(|i| b.contains(&format!("absent{i}"))).count();
        let rate = fps as f64 / n as f64;
        assert!(rate <= target * 2.0, "fp rate {rate} beyond 2x target {target}");
    }

    #[test]
    fn roundtrip() {
        let mut b = BloomFilter::with_capacity(100, 0.02);
        for i in 0..100 {
            b.insert(&format!("x{i}"));
        }
        let back = BloomFilter::decode(&b.encode()).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.len(), 100);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(&[]).is_err());
        assert!(BloomFilter::decode(&[0u8; 19]).is_err());
        let mut buf = BloomFilter::with_capacity(10, 0.01).encode();
        buf.pop();
        assert!(BloomFilter::decode(&buf).is_err());
    }

    #[test]
    fn empty_filter_matches_nothing() {
        let b = BloomFilter::with_capacity(64, 0.01);
        assert!(b.is_empty());
        assert!(!b.contains("anything"));
    }
}
