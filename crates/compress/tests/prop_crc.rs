//! CRC-32 properties: the table-sliced `crc32` equals the byte-wise
//! `reference::crc32` at every length and alignment the 16-byte blocks
//! can meet, streaming equals one-shot wherever the input is split, and
//! `combine` equals hashing the concatenation.

use fanstore_compress::crc32::{combine, crc32, Crc32};
use fanstore_compress::reference;
use proptest::prelude::*;

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
    /// (inside a block, on a boundary, into empty pieces) cannot matter.
    #[test]
    fn streaming_split_anywhere_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
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
        a in proptest::collection::vec(any::<u8>(), 0..2048),
        b in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let whole = crc32(&[&a[..], &b[..]].concat());
        prop_assert_eq!(combine(crc32(&a), crc32(&b), b.len() as u64), whole);
    }
}
