//! CRC-32 (IEEE 802.3 polynomial): the checksum behind every integrity
//! field in the store — GET_MANY entry frames, FCHK tables and chunks,
//! checkpoint/WAL record frames, both publish manifests — and the `xz`
//! container's payload check. `fanstore::framing` decides where a CRC
//! field sits; this module only computes it.
//!
//! Three things keep the checksum below decode in the read path's CPU
//! budget:
//!
//! * **Carry-less multiply where the CPU has it.** On x86_64, when
//!   `pclmulqdq` and `sse4.1` are detected at run time, [`Crc32::update`]
//!   hands every input of [`CLMUL_FROM`] bytes or more to a folding kernel
//!   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", Intel 2009): four 128-bit accumulators each
//!   jump 64 bytes ahead per step by two carry-less multiplies, are folded
//!   into one, and a Barrett reduction turns the last 64 bits into the
//!   register. The kernel is a safe `#[target_feature]` function whose
//!   loads are `u64::from_le_bytes` values, not pointers; the one `unsafe`
//!   in this module is the call to it, made only after the feature check.
//!   Its fold constants are derived from [`POLY`] at compile time.
//! * **Four table lanes, joined by `x^(8·lane)`, everywhere else.**
//!   Shorter inputs, the last fifteen bytes or fewer of a folded input,
//!   and every input on other CPUs go to [`Crc32::update_tables`]: sixteen
//!   input bytes per step through sixteen 256-entry tables built at
//!   compile time (`as_chunks::<16>`; a `u8`-indexed `[u32; 256]` needs no
//!   bounds check). One such chain waits on the register its previous step
//!   produced, so an input of [`LANES_FROM`] bytes or more is cut into four
//!   equal lanes that advance as four independent chains in one loop, and
//!   the lane CRCs are joined by multiplying by `x^(8·lane) mod P` — the
//!   same algebra as [`combine`]. The plain byte-at-a-time loop is
//!   [`crate::reference::crc32`], which the root `tests/prop_crc.rs` pins
//!   both kernels against.
//! * **Hash once.** [`combine`] derives the CRC of a concatenation from
//!   the CRCs of its parts, so a sender that already knows an immutable
//!   payload's CRC checksums only the few header bytes it puts in front.
//!   `x^(8n) mod P` is at most three factors read from digit-indexed
//!   tables of powers, and each product is sixteen integer multiplies, so
//!   a call costs tens of nanoseconds at any length.

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
const fn fold(word: u32, first: usize) -> u32 {
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

/// Shortest input [`Crc32::update_tables`] splits into four lanes. Below it
/// the join's few [`mul_mod_p`] calls cost more than the lanes save.
const LANES_FROM: usize = 1024;

/// Shortest input [`Crc32::update`] hands to the carry-less-multiply
/// kernel: the four whole blocks it needs to start. It already beats the
/// table kernel there (measured ≈ 11 ns against ≈ 20 ns at 64 bytes).
#[cfg(target_arch = "x86_64")]
const CLMUL_FROM: usize = 64;

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
        #[cfg(target_arch = "x86_64")]
        if data.len() >= CLMUL_FROM && clmul::detected() {
            let (blocks, tail) = data.as_chunks::<16>();
            // SAFETY: `clmul::detected` has just reported that this CPU
            // supports `pclmulqdq` and `sse4.1`, the target features
            // `clmul::fold` is compiled for; it takes the blocks by
            // reference and reads them through safe code only.
            self.state = unsafe { clmul::fold(self.state, blocks) };
            self.update_tables(tail);
            return;
        }
        self.update_tables(data);
    }

    /// The table kernel [`Crc32::update`] runs on short inputs, on what the
    /// carry-less-multiply kernel leaves, and on CPUs without it. Public so
    /// that tests pin it on machines where `update` would not reach it.
    #[doc(hidden)]
    pub fn update_tables(&mut self, data: &[u8]) {
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

/// Carry-less product of two 32-bit words (bit `i` of the result is the
/// XOR of every `a[j] & b[i - j]`), from sixteen integer multiplies.
///
/// Each operand is split into four classes of bits spaced four apart; a
/// class holds eight bits, so every column of a class-by-class integer
/// product sums at most eight ones and its carries stay inside the three
/// columns above it, which belong to other classes and are masked off.
const fn clmul32(a: u32, b: u32) -> u64 {
    const BITS: [u64; 4] = [0x1111_1111, 0x2222_2222, 0x4444_4444, 0x8888_8888];
    const KEEP: [u64; 4] = [
        0x1111_1111_1111_1111,
        0x2222_2222_2222_2222,
        0x4444_4444_4444_4444,
        0x8888_8888_8888_8888,
    ];
    let (a, b) = (a as u64, b as u64);
    let mut product = 0;
    let mut i = 0;
    while i < 4 {
        let mut j = 0;
        while j < 4 {
            product ^= ((a & BITS[i]) * (b & BITS[j])) & KEEP[(i + j) % 4];
            j += 1;
        }
        i += 1;
    }
    product
}

/// `a · b mod P` over GF(2), in the CRC's reflected bit order (bit 31 is
/// `x^0`). The 63-bit product, moved up one bit so that bit `i` stands for
/// `x^(63-i)`, is a high word times `x^32` plus a low word; the high word
/// times `x^32` is that register advanced over four zero bytes.
const fn mul_mod_p(a: u32, b: u32) -> u32 {
    let product = clmul32(a, b) << 1;
    fold(product as u32, 3) ^ (product >> 32) as u32
}

/// `x^0` in the register's bit order.
const ONE: u32 = 1 << 31;

/// A length enters [`x_pow_8n`] as three digits of this many bits.
const DIGIT_BITS: u32 = 11;

/// `X8N[j][d]` is `x^(8·d·2^(11j)) mod P`: the factor that digit `j` of a
/// length contributes.
const fn build_x8n() -> [[u32; 1 << DIGIT_BITS]; 3] {
    let mut table = [[0u32; 1 << DIGIT_BITS]; 3];
    let mut unit = 1 << 23; // x^8
    let mut j = 0;
    while j < 3 {
        table[j][0] = ONE;
        let mut d = 1;
        while d < 1 << DIGIT_BITS {
            table[j][d] = mul_mod_p(table[j][d - 1], unit);
            d += 1;
        }
        unit = mul_mod_p(table[j][(1 << DIGIT_BITS) - 1], unit);
        j += 1;
    }
    table
}

static X8N: [[u32; 1 << DIGIT_BITS]; 3] = build_x8n();

/// `x^(8n) mod P`: what the register is multiplied by when `n` bytes
/// follow it. `P` is primitive, so `x^(2^32-1) = 1` and `n` counts modulo
/// `2^32 - 1`, which leaves three digits: one [`X8N`] factor per nonzero
/// digit, so at most two [`mul_mod_p`] calls, and none below 2 KiB.
const fn x_pow_8n(n: u64) -> u32 {
    let mut rest = n % 0xffff_ffff;
    let mut power = ONE;
    let mut j = 0;
    while rest != 0 {
        let digit = (rest & ((1 << DIGIT_BITS) - 1)) as usize;
        if digit != 0 {
            let factor = X8N[j][digit];
            power = if power == ONE { factor } else { mul_mod_p(power, factor) };
        }
        rest >>= DIGIT_BITS;
        j += 1;
    }
    power
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

/// The folding kernel. Register conventions: a 128-bit lane loaded
/// little-endian holds sixteen message bytes with bit `i` standing for
/// `x^(127-i)` (reflected, like the 32-bit register, whose bit `i` is
/// `x^(31-i)`). A carry-less product of two reflected 64-bit halves comes
/// out one bit short of that alignment, so every multiplier is stored as
/// its 32-bit reflected form shifted left by one (`x^31` times it, read
/// as 64 bits), which makes a product by constant `x^e` worth `x^(e+32)`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{x_pow_8n, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Whether this CPU runs [`fold`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// `x^(8·bytes)` as a multiplier: a 64-bit half times it comes out
    /// worth the half times `x^(8·bytes + 32)`.
    const fn k(bytes: u64) -> i64 {
        (x_pow_8n(bytes) as i64) << 1
    }

    /// A lane is `H·x^64 + L` in its two halves; carried `d` bytes ahead
    /// it is `H·x^(8d+64) + L·x^(8d)`, so its keys are `x^(8d+32)` for the
    /// low half and `x^(8d-32)` for the high. `d` is 64 in the
    /// four-accumulator loop and 16 from one block to the next.
    const FOLD_64: (i64, i64) = (k(64 + 4), k(64 - 4));
    const FOLD_16: (i64, i64) = (k(16 + 4), k(16 - 4));
    /// `x^64` as a multiplier: folds the first 32 bits of 96 onto the 64
    /// after them.
    const FOLD_8: i64 = k(8);
    /// `P`, all 33 coefficients, reflected.
    const P: i64 = ((POLY as i64) << 1) | 1;
    /// Barrett's `µ = ⌊x^64 / P⌋`, a degree-32 quotient, reflected into 33
    /// bits. The division runs in normal bit order, where `P`'s leading
    /// term is bit 32.
    const MU: i64 = {
        let p = (POLY.reverse_bits() as u128) | (1 << 32);
        let mut rem: u128 = 1 << 64;
        let mut quotient: u64 = 0;
        let mut degree = 64;
        while degree >= 32 {
            if (rem >> degree) & 1 != 0 {
                rem ^= p << (degree - 32);
                quotient |= 1 << (degree - 32);
            }
            degree -= 1;
        }
        (quotient.reverse_bits() >> 31) as i64
    };

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let half = |h: &[u8]| u64::from_le_bytes(h.try_into().expect("8 of 16 bytes")) as i64;
        _mm_set_epi64x(half(hi), half(lo))
    }

    /// `acc` carried forward onto `next`: each 64-bit half of `acc` times
    /// its multiplier in `keys` (low half by the low key).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_onto(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(acc, keys, 0x00);
        let high = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// Advance the register `crc` over `blocks`, which must number at
    /// least four.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks.split_first_chunk::<4>().expect("at least four blocks");
        // The running register joins the first four message bytes.
        let mut acc = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(crc as i32)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        let (quads, singles) = rest.as_chunks::<4>();
        let keys = _mm_set_epi64x(FOLD_64.1, FOLD_64.0);
        for quad in quads {
            for (a, block) in acc.iter_mut().zip(quad) {
                *a = fold_onto(*a, load(block), keys);
            }
        }
        let keys = _mm_set_epi64x(FOLD_16.1, FOLD_16.0);
        let mut x = acc[0];
        for next in acc[1..].iter().copied().chain(singles.iter().map(|b| load(b))) {
            x = fold_onto(x, next, keys);
        }

        // 128 → 96 bits: the low half times FOLD_16's high key onto the
        // high half moved down 64 bits. The low 96 bits now stand for the
        // lane times x^32, which is congruent to the register.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, keys, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64: the first 32 bits times FOLD_8 onto the 64 after them.
        let low32 = _mm_set_epi64x(0, 0xffff_ffff);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_8), 0x00),
            _mm_srli_si128(x, 4),
        );
        // 64 → 32, Barrett: q = ⌊high · µ / x^32⌋, register = x − q · P,
        // whose low 32 coefficients land in bits 32..64.
        let mu_p = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_p, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, qp), 1) as u32
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The derived constants are the ones Gopal et al. publish for
        /// the reflected IEEE polynomial (k1–k5, P', µ').
        #[test]
        fn constants_match_the_published_values() {
            assert_eq!(FOLD_64, (0x1_5444_2bd4, 0x1_c6e4_1596));
            assert_eq!(FOLD_16, (0x1_7519_97d0, 0x0_ccaa_009e));
            assert_eq!(FOLD_8, 0x1_63cd_6124);
            assert_eq!(P, 0x1_db71_0641);
            assert_eq!(MU, 0x1_f701_1641);
        }
    }
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

    /// Multiplying by `x` one bit at a time is the definition the product
    /// and the power tables rest on; lengths past the first table row must
    /// add like exponents.
    #[test]
    fn products_and_powers_agree_with_shifting_one_bit_at_a_time() {
        let times_x = |r: u32| (r >> 1) ^ (POLY & (r & 1).wrapping_neg());
        let (mut power, mut shifted) = (1u32 << 31, 0x9E37_79B9);
        for e in 0..=4096u64 {
            if e % 8 == 0 {
                assert_eq!(x_pow_8n(e / 8), power, "x^{e}");
            }
            assert_eq!(mul_mod_p(0x9E37_79B9, power), shifted, "x^{e}");
            assert_eq!(mul_mod_p(power, 0x9E37_79B9), shifted, "x^{e}");
            power = times_x(power);
            shifted = times_x(shifted);
        }
        // x^(2^32) = x: the period `x_pow_8n` reduces exponents by.
        let x = 1 << 30;
        assert_eq!((0..32).fold(x, |p, _| mul_mod_p(p, p)), x);
        for (a, b) in [(u64::MAX / 3, u64::MAX / 3 * 2), (1 << 40, (1 << 56) + 255), (0, u64::MAX)]
        {
            assert_eq!(mul_mod_p(x_pow_8n(a), x_pow_8n(b)), x_pow_8n(a + b), "{a} + {b}");
        }
    }
}
