//! Audited word-wide copy primitives for the LZ decode hot path.
//!
//! Every LZ-family decoder in this crate reduces to two operations: append
//! a literal run from the compressed stream, and append a back-reference
//! copy from earlier output. Done byte-at-a-time those are bounds-check
//! bound; this module implements both as unaligned 8- and 16-byte block
//! moves, the technique real LZ4/LZSSE decoders use ("wild copies").
//!
//! Two interfaces share the same raw copies:
//!
//! * [`append_slice`] / [`overlap_copy`] grow a `Vec<u8>` one run at a
//!   time (reserve, copy, `set_len` per call) — what lzf, lzsse8,
//!   zstd_lite and the token replayer use.
//! * [`Cursor`] reserves the whole output once and then only moves a
//!   write position, so a sequence costs no capacity check, no `Vec`
//!   header update and no call. It adds the two *shortcut* copies of the
//!   LZ4 block decoder: [`Cursor::wild_literals`] (one 16-byte store for
//!   up to 16 literals) and [`Cursor::wild_match`] (8 + 8 + 2 bytes for a
//!   match of up to 18 at distance ≥ 8).
//!
//! This is the **only** module in the crate that touches memory through
//! raw pointers (the crate's one other `unsafe` is `crc32`'s feature-checked
//! call into its carry-less-multiply kernel). The safety argument is local
//! and small:
//!
//! * Reads never leave the source slice. Short literal copies use
//!   *overlapping* head/tail word loads (first 8 and last 8 bytes of the
//!   run), and the 16-byte literal shortcut takes a `&[u8; 16]`: never a
//!   load that crosses the end of the input.
//! * Writes may overrun the *logical* end of the output by up to
//!   `WILD_SLACK - 1` bytes, but always land inside capacity reserved up
//!   front (`reserve(len + WILD_SLACK)`), and `set_len` only ever exposes
//!   the exact logical length.
//! * Overlap copies read only bytes at or below the write frontier, which
//!   are initialized by construction (each wild stride keeps
//!   `src + stride <= dst`, with the 16-byte stride used only for
//!   `dist >= 16`; the `dist < 8` path doubles an already-initialized
//!   pattern in place).
//! * Every entry point checks its own preconditions with a hard
//!   `assert!`: decoders validate lengths and distances first (they owe
//!   the caller a typed error), so a decoder bug can panic but never read
//!   or write out of bounds. [`Cursor`]'s fields are private, which is
//!   what lets its methods trust `start <= pos <= limit` and
//!   `limit + WILD_SLACK <= capacity`.
//!
//! CI runs this module's unit tests under Miri, so they stay free of
//! threads, clocks and large inputs.

/// Bytes of spare capacity behind the logical end of an output that a
/// wild copy may scribble on: the widest stride is 16 bytes and starts
/// before the logical end, so it spills at most 15. Every reservation in
/// this module, and `fanstore::bufpool`'s pad on pooled decode buffers,
/// is `len + WILD_SLACK`.
pub const WILD_SLACK: usize = 16;

/// Unaligned little-endian `u64` load from `buf[pos..pos + 8]`.
///
/// Safe: the slice index panics (rather than reading out of bounds) if the
/// window does not fit. Shared by the match finder's XOR + `trailing_zeros`
/// match extension and the decoders' copy loops.
#[inline(always)]
pub fn read_u64(buf: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap())
}

/// Append `src` to `out` with word-wide copies.
///
/// Semantically identical to `out.extend_from_slice(src)`, but the short
/// runs LZ decoders produce (a handful of literals between matches) skip
/// the generic `memcpy` dispatch in favour of one or two overlapping
/// 8-byte load/store pairs.
#[inline]
pub fn append_slice(out: &mut Vec<u8>, src: &[u8]) {
    let n = src.len();
    if n > 32 {
        out.extend_from_slice(src);
        return;
    }
    out.reserve(n + WILD_SLACK);
    let old_len = out.len();
    debug_assert!(out.capacity() >= old_len + n + WILD_SLACK);
    // SAFETY: all loads below stay inside `src` (overlapping head/tail
    // windows, each starting at an offset where a full word fits); all
    // stores stay inside the `n + WILD_SLACK` bytes of spare capacity
    // reserved above (the widest is 8 bytes at an offset below `n`);
    // `set_len` exposes exactly the `n` bytes just written.
    unsafe {
        let dst = out.as_mut_ptr().add(old_len);
        let sp = src.as_ptr();
        if n >= 8 {
            std::ptr::copy_nonoverlapping(sp, dst, 8);
            if n > 8 {
                // Tail word overlaps the head/mid words; the double-write
                // region is written with identical bytes. Mid words at 8
                // and 16 close the gap up to n = 32 (LZF's max literal
                // run), the largest n that reaches this branch.
                std::ptr::copy_nonoverlapping(sp.add(n - 8), dst.add(n - 8), 8);
                if n > 16 {
                    std::ptr::copy_nonoverlapping(sp.add(8), dst.add(8), 8);
                }
                if n > 24 {
                    std::ptr::copy_nonoverlapping(sp.add(16), dst.add(16), 8);
                }
            }
        } else if n >= 4 {
            std::ptr::copy_nonoverlapping(sp, dst, 4);
            std::ptr::copy_nonoverlapping(sp.add(n - 4), dst.add(n - 4), 4);
        } else {
            for k in 0..n {
                *dst.add(k) = *sp.add(k);
            }
        }
        out.set_len(old_len + n);
    }
}

/// Copy `len` bytes from `buf[pos - dist..]` to `buf[pos..]`, replicating
/// the pattern when `dist < len`.
///
/// # Safety
/// `buf` must be valid for reads and writes of `pos + len + WILD_SLACK`
/// bytes, `buf[..pos]` must be initialized, and `1 <= dist <= pos`.
#[inline(always)]
unsafe fn overlap_raw(buf: *mut u8, pos: usize, dist: usize, len: usize) {
    // SAFETY: `src` starts `dist` bytes inside the initialized prefix. All
    // branches write only below `pos + len + WILD_SLACK` and read only
    // initialized bytes:
    // * `dist >= 16`: the 16-byte stride keeps `src + 16 <= dst`, so each
    //   load sits entirely below the write frontier. The final store may
    //   spill up to 15 bytes past `pos + len`.
    // * `8 <= dist < 16`: same with 8-byte strides (`src + 8 <= dst`),
    //   spilling at most 7 bytes.
    // * `dist < 8`: pattern doubling copies `[s, s + n)` to `[s + avail,
    //   s + avail + n)` with `n <= avail`, so source and destination never
    //   overlap, the source is always initialized and nothing is written
    //   past `pos + len`.
    unsafe {
        if dist >= 16 {
            let mut src = buf.add(pos - dist);
            let mut dst = buf.add(pos);
            let end = dst.add(len);
            while dst < end {
                std::ptr::copy_nonoverlapping(src, dst, 16);
                src = src.add(16);
                dst = dst.add(16);
            }
        } else if dist >= 8 {
            let mut src = buf.add(pos - dist);
            let mut dst = buf.add(pos);
            let end = dst.add(len);
            while dst < end {
                std::ptr::copy_nonoverlapping(src, dst, 8);
                src = src.add(8);
                dst = dst.add(8);
            }
        } else {
            // Double the trailing `dist`-byte pattern in place until it
            // covers the match: O(log(len / dist)) block moves.
            let s = buf.add(pos - dist);
            let needed = dist + len;
            let mut avail = dist;
            while avail < needed {
                let n = avail.min(needed - avail);
                std::ptr::copy_nonoverlapping(s, s.add(avail), n);
                avail += n;
            }
        }
    }
}

/// Append `len` bytes copied from `dist` bytes behind the end of `out`,
/// replicating the pattern when `dist < len` (LZ run-length-style matches).
///
/// # Panics
/// If `dist == 0` or `dist > out.len()`. Decoders validate distances
/// before calling; the assert turns a decoder bug into a panic instead of
/// an out-of-bounds access.
#[inline]
pub fn overlap_copy(out: &mut Vec<u8>, dist: usize, len: usize) {
    assert!(dist >= 1 && dist <= out.len(), "overlap_copy: invalid distance");
    if len == 0 {
        return;
    }
    out.reserve(len + WILD_SLACK);
    let old_len = out.len();
    debug_assert!(out.capacity() >= old_len + len + WILD_SLACK);
    // SAFETY: the reservation above makes the buffer valid for
    // `old_len + len + WILD_SLACK` bytes, its first `old_len` are
    // initialized, and the assert checked `dist`. `set_len` exposes
    // exactly the `len` bytes `overlap_raw` wrote.
    unsafe {
        overlap_raw(out.as_mut_ptr(), old_len, dist, len);
        out.set_len(old_len + len);
    }
}

/// An output position over capacity reserved once: the decoder's view of
/// "`out`, plus `expected_len` bytes I am about to produce".
///
/// Creating the cursor reserves `expected_len + WILD_SLACK` bytes behind
/// `out`'s current length; every method then writes through a raw pointer
/// and advances `pos`, never past `limit = start + expected_len`. Dropping
/// the cursor publishes what was written (`set_len(pos)`), so a decoder
/// that bails out with an error leaves the bytes it produced, as the
/// `Vec`-growing primitives do.
pub struct Cursor<'a> {
    out: &'a mut Vec<u8>,
    /// `out`'s buffer, valid for `limit + WILD_SLACK` bytes. `out` is
    /// borrowed for the cursor's lifetime, so nothing can reallocate it.
    buf: *mut u8,
    /// `out.len()` when the cursor was created: matches may reach back to
    /// here and no further.
    start: usize,
    /// Write position: `buf[..pos]` is initialized, `start <= pos <= limit`.
    pos: usize,
    limit: usize,
}

impl<'a> Cursor<'a> {
    /// Reserve room for `expected_len` more bytes (plus the slack) once.
    ///
    /// # Panics
    /// Like `Vec::reserve`, if the capacity would overflow.
    pub fn new(out: &'a mut Vec<u8>, expected_len: usize) -> Self {
        out.reserve(expected_len.checked_add(WILD_SLACK).expect("capacity overflow"));
        let start = out.len();
        let buf = out.as_mut_ptr();
        Cursor { out, buf, start, pos: start, limit: start + expected_len }
    }

    /// Bytes written through this cursor so far: the furthest a match
    /// distance may reach.
    #[inline(always)]
    pub fn produced(&self) -> usize {
        self.pos - self.start
    }

    /// Bytes still to produce before `expected_len` is reached.
    #[inline(always)]
    pub fn remaining(&self) -> usize {
        self.limit - self.pos
    }

    /// Append `src`, exactly: nothing is written past its last byte.
    ///
    /// # Panics
    /// If `src.len() > self.remaining()`.
    #[inline(always)]
    pub fn literals(&mut self, src: &[u8]) {
        assert!(src.len() <= self.remaining(), "Cursor::literals: run exceeds output");
        // SAFETY: `pos + src.len() <= limit` is inside the reservation and
        // `src` is a separate allocation (`out` is mutably borrowed).
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.buf.add(self.pos), src.len()) };
        self.pos += src.len();
    }

    /// Append the first `n` bytes of `src` by storing all sixteen: the
    /// LZ4 shortcut for a literal run whose length fits the token nibble.
    ///
    /// # Panics
    /// If `n > 16` or `n > self.remaining()`.
    #[inline(always)]
    pub fn wild_literals(&mut self, src: &[u8; 16], n: usize) {
        assert!(n <= 16 && n <= self.remaining(), "Cursor::wild_literals: run exceeds output");
        // SAFETY: the load is the whole of `src`; the store ends at
        // `pos + 16 <= limit + WILD_SLACK`, inside the reservation.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.buf.add(self.pos), 16) };
        self.pos += n;
    }

    /// Append `len <= 18` bytes from `dist >= 8` bytes back as three fixed
    /// copies of 8, 8 and 2 bytes: the LZ4 shortcut for a match whose
    /// length fits the token nibble.
    ///
    /// # Panics
    /// Unless `8 <= dist <= self.produced()`, `len <= 18` and
    /// `self.remaining() >= 18`.
    #[inline(always)]
    pub fn wild_match(&mut self, dist: usize, len: usize) {
        assert!(
            dist >= 8 && dist <= self.produced() && len <= 18 && self.remaining() >= 18,
            "Cursor::wild_match: invalid distance or length"
        );
        // SAFETY: all three stores end at or below `pos + 18 <= limit`.
        // `src + 8 <= dst`, so no copy overlaps itself, and each load ends
        // at or below `src + 18 <= pos + 10`: bytes initialized before the
        // call or by the stores that precede the load.
        unsafe {
            let dst = self.buf.add(self.pos);
            let src = dst.sub(dist);
            std::ptr::copy_nonoverlapping(src, dst, 8);
            std::ptr::copy_nonoverlapping(src.add(8), dst.add(8), 8);
            std::ptr::copy_nonoverlapping(src.add(16), dst.add(16), 2);
        }
        self.pos += len;
    }

    /// Append `len` bytes from `dist` bytes back, any distance and length
    /// (the pattern replicates when `dist < len`).
    ///
    /// # Panics
    /// Unless `1 <= dist <= self.produced()` and `len <= self.remaining()`.
    #[inline(always)]
    pub fn copy_match(&mut self, dist: usize, len: usize) {
        assert!(
            dist >= 1 && dist <= self.produced() && len <= self.remaining(),
            "Cursor::copy_match: invalid distance or length"
        );
        // SAFETY: `pos + len <= limit`, so `pos + len + WILD_SLACK` is
        // inside the reservation; `buf[..pos]` is initialized and the
        // assert bounded `dist` by `pos - start`.
        unsafe { overlap_raw(self.buf, self.pos, dist, len) };
        self.pos += len;
    }
}

impl Drop for Cursor<'_> {
    fn drop(&mut self) {
        // SAFETY: `pos <= limit <= capacity`, and every byte below `pos`
        // was initialized before the cursor existed or written through it.
        unsafe { self.out.set_len(self.pos) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-wise model the word-wide implementations must match exactly.
    fn overlap_copy_model(out: &mut Vec<u8>, dist: usize, len: usize) {
        let start = out.len() - dist;
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
    }

    #[test]
    fn read_u64_matches_le() {
        let buf = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(read_u64(&buf, 0), u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(read_u64(&buf, 1), u64::from_le_bytes([2, 3, 4, 5, 6, 7, 8, 9]));
    }

    #[test]
    fn append_slice_all_short_lengths() {
        for n in 0..=40usize {
            for prefix in [0usize, 1, 7, 13] {
                let src: Vec<u8> =
                    (0..n as u8).map(|b| b.wrapping_mul(37).wrapping_add(11)).collect();
                let mut out: Vec<u8> = (0..prefix as u8).collect();
                let mut expect = out.clone();
                expect.extend_from_slice(&src);
                append_slice(&mut out, &src);
                assert_eq!(out, expect, "n={n} prefix={prefix}");
            }
        }
    }

    #[test]
    fn overlap_copy_exhaustive_small() {
        // Every (dist, len) pair over a varied seed buffer must match the
        // byte-wise model, covering both the wild-stride and the
        // pattern-doubling branches plus their boundaries.
        let seed: Vec<u8> = (0..48u8).map(|b| b.wrapping_mul(101).wrapping_add(3)).collect();
        for dist in 1..=seed.len() {
            for len in 0..=130usize {
                let mut fast = seed.clone();
                let mut slow = seed.clone();
                overlap_copy(&mut fast, dist, len);
                overlap_copy_model(&mut slow, dist, len);
                assert_eq!(fast, slow, "dist={dist} len={len}");
            }
        }
    }

    #[test]
    fn overlap_copy_long_runs() {
        for (dist, len) in [(1usize, 5_000usize), (3, 4_099), (8, 4_999), (9, 4_000), (16, 4_001)] {
            let mut fast: Vec<u8> = (0..dist as u8).collect();
            let mut slow = fast.clone();
            overlap_copy(&mut fast, dist, len);
            overlap_copy_model(&mut slow, dist, len);
            assert_eq!(fast, slow, "dist={dist} len={len}");
        }
    }

    #[test]
    fn overlap_copy_does_not_disturb_prefix() {
        let mut out = b"prefix-material-0123456789".to_vec();
        let snapshot = out.clone();
        overlap_copy(&mut out, 10, 25);
        assert_eq!(&out[..snapshot.len()], &snapshot[..]);
    }

    /// A buffer of exactly the capacity a cursor needs for `expected`
    /// more bytes behind `prefix`: any store past the slack would be out
    /// of the allocation (and caught by Miri).
    fn tight(prefix: &[u8], expected: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(prefix.len() + expected + WILD_SLACK);
        out.extend_from_slice(prefix);
        out
    }

    #[test]
    fn cursor_appends_behind_existing_content_and_publishes_on_drop() {
        let mut out = tight(b"head:", 40);
        let ptr = out.as_ptr();
        {
            let mut cur = Cursor::new(&mut out, 40);
            assert_eq!((cur.produced(), cur.remaining()), (0, 40));
            cur.literals(b"abcdefgh");
            cur.wild_literals(b"0123456789ABCDEF", 3);
            cur.copy_match(11, 11);
            cur.wild_match(8, 18);
            assert_eq!((cur.produced(), cur.remaining()), (40, 0));
        }
        assert_eq!(out, b"head:abcdefgh012abcdefgh012defgh012defgh012de");
        assert_eq!(out.as_ptr(), ptr, "the reservation fitted the capacity: no regrow");
    }

    #[test]
    fn cursor_dropped_early_keeps_what_was_written() {
        let mut out = tight(b"", 100);
        let mut cur = Cursor::new(&mut out, 100);
        cur.literals(b"partial");
        drop(cur);
        assert_eq!(out, b"partial");
    }

    #[test]
    fn cursor_wild_literals_every_length_at_the_very_end() {
        // The 16-byte store starts `n` bytes before the logical end and
        // must land in the slack, never past it.
        let src = *b"0123456789ABCDEF";
        for n in 0..=16usize {
            let mut out = tight(b"xy", n);
            Cursor::new(&mut out, n).wild_literals(&src, n);
            assert_eq!(out, [b"xy", &src[..n]].concat(), "n={n}");
        }
    }

    #[test]
    fn cursor_wild_match_every_distance_and_length() {
        let seed: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(37).wrapping_add(5)).collect();
        for dist in 8..=seed.len() {
            for len in 0..=18usize {
                let mut fast = tight(&[], seed.len() + 18);
                let mut cur = Cursor::new(&mut fast, seed.len() + 18);
                cur.literals(&seed);
                cur.wild_match(dist, len);
                drop(cur);
                let mut slow = seed.clone();
                overlap_copy_model(&mut slow, dist, len);
                assert_eq!(fast, slow, "dist={dist} len={len}");
            }
        }
    }

    #[test]
    fn cursor_copy_match_matches_the_model_up_to_the_limit() {
        let seed: Vec<u8> = (0..20u8).map(|b| b.wrapping_mul(101).wrapping_add(3)).collect();
        for dist in 1..=seed.len() {
            for len in [0usize, 1, 4, 7, 8, 15, 16, 17, 31, 33, 70] {
                // `len` is exactly what remains: the wild strides spill
                // into the slack and nowhere else.
                let mut fast = tight(b"pre", seed.len() + len);
                let mut cur = Cursor::new(&mut fast, seed.len() + len);
                cur.literals(&seed);
                cur.copy_match(dist, len);
                assert_eq!(cur.remaining(), 0);
                drop(cur);
                let mut slow = seed.clone();
                overlap_copy_model(&mut slow, dist, len);
                assert_eq!(fast, [b"pre", &slow[..]].concat(), "dist={dist} len={len}");
            }
        }
    }

    #[test]
    fn cursor_matches_cannot_reach_before_its_start() {
        // Bytes already in `out` are not this block's history.
        for wild in [false, true] {
            let caught = std::panic::catch_unwind(|| {
                let mut out = tight(b"0123456789", 40);
                let mut cur = Cursor::new(&mut out, 40);
                cur.literals(b"abcdefgh");
                if wild {
                    cur.wild_match(9, 4);
                } else {
                    cur.copy_match(9, 4);
                }
            });
            assert!(caught.is_err(), "wild={wild}");
        }
    }

    #[test]
    fn cursor_rejects_writes_past_the_expected_length() {
        let overrun: [fn(&mut Cursor); 5] = [
            |c| c.literals(&[0; 9]),
            |c| c.wild_literals(&[0; 16], 9),
            |c| c.wild_literals(&[0; 16], 17),
            |c| c.copy_match(1, 9),
            |c| c.wild_match(8, 4), // fewer than 18 bytes remain
        ];
        for (i, op) in overrun.iter().enumerate() {
            let caught = std::panic::catch_unwind(|| {
                let mut out = Vec::new();
                let mut cur = Cursor::new(&mut out, 16);
                cur.literals(&[7; 8]);
                op(&mut cur);
            });
            assert!(caught.is_err(), "case {i}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn overlap_copy_rejects_zero_dist() {
        let mut out = b"abc".to_vec();
        overlap_copy(&mut out, 0, 4);
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn overlap_copy_rejects_dist_past_start() {
        let mut out = b"abc".to_vec();
        overlap_copy(&mut out, 4, 2);
    }
}
