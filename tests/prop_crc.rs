//! CRC-32 properties: the shipping `crc32` equals the byte-wise
//! `reference::crc32` at every length and alignment its 16-byte blocks and
//! four lanes can meet, streaming equals one-shot wherever the input is
//! split, and `combine` equals hashing the concatenation.

use fanstore_repro::compress::crc32::{combine, crc32, Crc32};
use fanstore_repro::compress::reference;
use proptest::prelude::*;

/// Shortest input the kernel splits into four lanes.
const LANES_FROM: usize = 1024;

fn noise(n: usize, mut x: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

/// Feed `data` to one `Crc32` in pieces of `pieces` bytes, the rest last.
fn streamed(data: &[u8], pieces: &[usize]) -> u32 {
    let mut c = Crc32::new();
    let mut from = 0;
    for &len in pieces {
        c.update(&data[from..from + len]);
        from += len;
    }
    c.update(&data[from..]);
    c.finish()
}

#[test]
fn sliced_equals_bytewise_at_every_short_length_and_offset() {
    // Lengths 0..=80 cover no block, one to five blocks and every tail;
    // start offsets 0..16 put the first block at every alignment.
    let buf = noise(16 + 80, 0x9E37_79B9_7F4A_7C15);
    for start in 0..16 {
        for len in 0..=80 {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), reference::crc32(data), "start {start} len {len}");
        }
    }
}

#[test]
fn lanes_equal_bytewise_around_the_threshold_at_every_offset() {
    // Every length from five blocks below the lane threshold to five
    // above, then lengths past 4 KiB that are not multiples of 64, so the
    // lanes leave one to three whole blocks and a partial one to the
    // single chain; each at every alignment.
    let lengths = (LANES_FROM - 80..=LANES_FROM + 80).chain((1..64).map(|k| 4096 + 3 * k));
    let buf = noise(16 + 4096 + 3 * 63, 0x2545_F491_4F6C_DD1D);
    for len in lengths {
        for start in 0..16 {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), reference::crc32(data), "start {start} len {len}");
        }
    }
    let big = noise((1 << 20) + 5, 3);
    assert_eq!(crc32(&big), reference::crc32(&big), "1 MiB + 5");
}

#[test]
fn streaming_pieces_that_straddle_the_lane_threshold() {
    let data = noise(9000, 0xDEAD_BEEF);
    let whole = reference::crc32(&data);
    for pieces in [
        [LANES_FROM - 1, 1, LANES_FROM, LANES_FROM + 1, 17],
        [1, LANES_FROM + 76, 2 * LANES_FROM - 1, LANES_FROM - 64, 64],
        [LANES_FROM + 16, LANES_FROM - 16, 3000, 999, 16],
    ] {
        assert_eq!(streamed(&data, &pieces), whole, "pieces {pieces:?}");
    }
}

#[test]
fn combine_over_lane_sized_parts() {
    let data = noise(4 * (LANES_FROM + 16) + 37, 5);
    let whole = reference::crc32(&data);
    for part in [LANES_FROM - 1, LANES_FROM, LANES_FROM + 16, LANES_FROM + 17] {
        let joined =
            data.chunks(part).fold(crc32(b""), |crc, p| combine(crc, crc32(p), p.len() as u64));
        assert_eq!(joined, whole, "parts of {part}");
    }
}

#[test]
fn combine_handles_empty_sides_and_a_megabyte_tail() {
    let a = noise(1000, 1);
    let b = noise((1 << 20) + 5, 2);
    let whole = crc32(&[&a[..], &b[..]].concat());
    assert_eq!(combine(crc32(&a), crc32(&b), b.len() as u64), whole);
    assert_eq!(combine(crc32(&a), crc32(b""), 0), crc32(&a), "empty b");
    assert_eq!(combine(crc32(b""), crc32(&b), b.len() as u64), crc32(&b), "empty a");
    assert_eq!(combine(crc32(b""), crc32(b""), 0), 0, "both empty");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sliced_equals_bytewise(data in proptest::collection::vec(any::<u8>(), 0..65536)) {
        prop_assert_eq!(crc32(&data), reference::crc32(&data));
    }

    /// `update` carries its state across calls, so where the input is cut
    /// (inside a block, on a boundary, into empty pieces, on either side of
    /// the lane threshold) cannot matter.
    #[test]
    fn streaming_split_anywhere_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
        cuts in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let mut at: Vec<usize> = cuts.iter().map(|c| *c as usize % (data.len() + 1)).collect();
        at.sort_unstable();
        let mut c = Crc32::new();
        let mut from = 0;
        for to in at.into_iter().chain([data.len()]) {
            c.update(&data[from..to]);
            from = to;
        }
        prop_assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn combine_equals_hashing_the_concatenation(
        a in proptest::collection::vec(any::<u8>(), 0..4096),
        b in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let whole = crc32(&[&a[..], &b[..]].concat());
        prop_assert_eq!(combine(crc32(&a), crc32(&b), b.len() as u64), whole);
    }
}
