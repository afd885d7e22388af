//! CRC-32 (IEEE 802.3 polynomial): the checksum behind every integrity
//! field in the store — GET_MANY entry frames, FCHK tables and chunks,
//! checkpoint/WAL record frames, both publish manifests — and the `xz`
//! container's payload check. `fanstore::framing` decides where a CRC
//! field sits; this module only computes it.
//!
//! Two things keep the checksum below decode in the read path's CPU
//! budget:
//!
//! * **Four lanes, joined by `x^(8·lane)`.** [`Crc32::update`] folds
//!   sixteen input bytes per step through sixteen 256-entry tables built
//!   at compile time, in safe code (`as_chunks::<16>`; a `u8`-indexed
//!   `[u32; 256]` needs no bounds check). One such chain waits on the
//!   register its previous step produced, so an input of [`LANES_FROM`]
//!   bytes or more is cut into four equal lanes that advance as four
//!   independent chains in one loop, and the lane CRCs are joined by
//!   multiplying by `x^(8·lane) mod P` — the same algebra as [`combine`].
//!   What the lanes leave, and shorter inputs, run one chain; only the
//!   last fifteen bytes or fewer go one byte at a time. The plain
//!   byte-at-a-time loop is [`crate::reference::crc32`], which the root
//!   `tests/prop_crc.rs` pins this module against.
//! * **Hash once.** [`combine`] derives the CRC of a concatenation from
//!   the CRCs of its parts, so a sender that already knows an immutable
//!   payload's CRC checksums only the few header bytes it puts in front.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table for the reflected polynomial;
/// `TABLES[k][b]` is the CRC state after byte `b` and `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Fold one little-endian word whose first byte is `first` bytes away from
/// the end of a 16-byte block.
#[inline(always)]
fn fold(word: u32, first: usize) -> u32 {
    TABLES[first][(word & 0xff) as usize]
        ^ TABLES[first - 1][((word >> 8) & 0xff) as usize]
        ^ TABLES[first - 2][((word >> 16) & 0xff) as usize]
        ^ TABLES[first - 3][(word >> 24) as usize]
}

/// Advance the register `crc` over one 16-byte block.
///
/// The first eight bytes are one load, split in registers; the last eight
/// reach the tables byte by byte. Four chains in flight are bound by load
/// ports, and that split of loads against shifts measured fastest.
#[inline(always)]
fn step(crc: u32, block: &[u8; 16]) -> u32 {
    let head = u64::from_le_bytes(block[..8].try_into().expect("8 of 16 bytes")) ^ u64::from(crc);
    let word =
        |at: usize| u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]);
    fold(head as u32, 15) ^ fold((head >> 32) as u32, 11) ^ fold(word(8), 7) ^ fold(word(12), 3)
}

/// Shortest input [`Crc32::update`] splits into four lanes. Below it the
/// join's few [`mul_mod_p`] calls cost more than the lanes save (measured
/// break-even between 600 B and 1 KiB).
const LANES_FROM: usize = 1024;

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let (mut blocks, tail) = data.as_chunks::<16>();
        if data.len() >= LANES_FROM {
            // Lane 0 continues the running register, lanes 1–3 start from
            // zero. The register is linear over GF(2), so the whole is each
            // lane's register times x^(8·lane) once per lane after it.
            let lane = blocks.len() / 4;
            let (l0, rest) = blocks.split_at(lane);
            let (l1, rest) = rest.split_at(lane);
            let (l2, rest) = rest.split_at(lane);
            let (l3, rest) = rest.split_at(lane);
            let mut c = [crc, 0, 0, 0];
            for (((b0, b1), b2), b3) in l0.iter().zip(l1).zip(l2).zip(l3) {
                c = [step(c[0], b0), step(c[1], b1), step(c[2], b2), step(c[3], b3)];
            }
            let shift = x_pow_8n(16 * lane as u64);
            crc = c[1..].iter().fold(c[0], |joined, &next| mul_mod_p(shift, joined) ^ next);
            blocks = rest;
        }
        for block in blocks {
            crc = step(crc, block);
        }
        for &b in tail {
            crc = TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// `a · b mod P` over GF(2), in the CRC's reflected bit order (bit 31 is
/// `x^0`). Masks instead of branches: [`Crc32::update`] runs this on
/// every long input, and `a`'s bits are data.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut i = 0;
    while i < 32 {
        product ^= b & ((a >> (31 - i)) & 1).wrapping_neg();
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
        i += 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k) mod P`. `P` is primitive, so `x^(2^32) = x` and
/// the table wraps after 32 entries.
const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    table[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        table[k] = mul_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = build_x2n();

/// `x^(8n) mod P`: what the register is multiplied by when `n` bytes
/// follow it. Square-and-multiply over [`X2N`] (zlib's current form): at
/// most 64 [`mul_mod_p`] calls, independent of `n`.
fn x_pow_8n(n: u64) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let mut bits = n;
    let mut k = 3; // n counts bytes: start at x^(2^3)
    while bits != 0 {
        if bits & 1 != 0 {
            shift = mul_mod_p(X2N[k & 31], shift);
        }
        bits >>= 1;
        k += 1;
    }
    shift
}

/// CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// touching either input.
///
/// Appending `n` zero bytes to a message is a linear map on the CRC
/// register over GF(2) — the matrix zlib's original `crc32_combine`
/// squares its way to. That matrix is multiplication by `x^(8n) mod P`,
/// so this computes the one polynomial ([`x_pow_8n`]) instead.
pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    mul_mod_p(x_pow_8n(len_b), crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one 16-byte block (zlib's value).
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn differs_on_single_bit_flip() {
        let mut data = vec![0u8; 128];
        let base = crc32(&data);
        data[64] ^= 0x10;
        assert_ne!(crc32(&data), base);
    }

    #[test]
    fn combine_joins_two_checksums() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for cut in [0, 1, 15, 16, 17, 100, 199, 200] {
            let (a, b) = data.split_at(cut);
            assert_eq!(combine(crc32(a), crc32(b), b.len() as u64), crc32(&data), "cut {cut}");
        }
    }
}
