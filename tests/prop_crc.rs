//! CRC-32 properties, for both kernels behind `Crc32`: the dispatched
//! `update` (carry-less multiply from 64 bytes on CPUs that have it) and the
//! table kernel it falls back to, `update_tables`. Each equals the byte-wise
//! `reference::crc32` at every length and alignment their blocks, folds and
//! four lanes can meet, streaming equals one-shot wherever the input is
//! split, and `combine` equals hashing the concatenation.

use fanstore_repro::compress::crc32::{combine, crc32, Crc32};
use fanstore_repro::compress::reference;
use proptest::prelude::*;

/// Shortest input `update` hands to the carry-less-multiply kernel.
const CLMUL_FROM: usize = 64;
/// Shortest input the table kernel splits into four lanes.
const LANES_FROM: usize = 1024;

type Kernel = fn(&mut Crc32, &[u8]);
const KERNELS: [(&str, Kernel); 2] = [("update", Crc32::update), ("tables", Crc32::update_tables)];

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

fn oneshot(kernel: Kernel, data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    kernel(&mut c, data);
    c.finish()
}

/// Feed `data` to one `Crc32` in pieces of `pieces` bytes, the rest last.
fn streamed(kernel: Kernel, data: &[u8], pieces: &[usize]) -> u32 {
    let mut c = Crc32::new();
    let mut from = 0;
    for &len in pieces {
        kernel(&mut c, &data[from..from + len]);
        from += len;
    }
    kernel(&mut c, &data[from..]);
    c.finish()
}

#[test]
fn sliced_equals_bytewise_at_every_short_length_and_offset() {
    // Lengths 0..=512 cover no block, the carry-less kernel's threshold,
    // every count of 64-byte steps and single blocks after them up to
    // eight steps, and every tail; start offsets 0..16 put the first block
    // at every alignment.
    let buf = noise(16 + 512, 0x9E37_79B9_7F4A_7C15);
    for start in 0..16 {
        for len in 0..=512 {
            let data = &buf[start..start + len];
            let want = reference::crc32(data);
            for (name, kernel) in KERNELS {
                assert_eq!(oneshot(kernel, data), want, "{name} start {start} len {len}");
            }
        }
    }
}

#[test]
fn lanes_equal_bytewise_around_the_threshold_at_every_offset() {
    // Every length from five blocks below the lane threshold to five
    // above, then lengths past 4 KiB that are not multiples of 64, so the
    // lanes (and the four carry-less accumulators) leave one to three
    // whole blocks and a partial one; each at every alignment.
    let lengths = (LANES_FROM - 80..=LANES_FROM + 80).chain((1..64).map(|k| 4096 + 3 * k));
    let buf = noise(16 + 4096 + 3 * 63, 0x2545_F491_4F6C_DD1D);
    for len in lengths {
        for start in 0..16 {
            let data = &buf[start..start + len];
            let want = reference::crc32(data);
            for (name, kernel) in KERNELS {
                assert_eq!(oneshot(kernel, data), want, "{name} start {start} len {len}");
            }
        }
    }
    let big = noise((1 << 20) + 5, 3);
    let want = reference::crc32(&big);
    for (name, kernel) in KERNELS {
        assert_eq!(oneshot(kernel, &big), want, "{name} 1 MiB + 5");
    }
}

#[test]
fn streaming_pieces_that_straddle_the_lane_threshold() {
    let data = noise(9000, 0xDEAD_BEEF);
    let whole = reference::crc32(&data);
    for pieces in [
        [LANES_FROM - 1, 1, LANES_FROM, LANES_FROM + 1, 17],
        [1, LANES_FROM + 76, 2 * LANES_FROM - 1, LANES_FROM - 64, 64],
        [LANES_FROM + 16, LANES_FROM - 16, 3000, 999, 16],
        [CLMUL_FROM - 1, CLMUL_FROM, 1, CLMUL_FROM + 1, CLMUL_FROM + 15],
        [3, CLMUL_FROM + 16, CLMUL_FROM - 16, 2 * CLMUL_FROM + 17, LANES_FROM + 3],
    ] {
        for (name, kernel) in KERNELS {
            assert_eq!(streamed(kernel, &data, &pieces), whole, "{name} pieces {pieces:?}");
        }
    }
}

#[test]
fn combine_over_lane_sized_parts() {
    let data = noise(4 * (LANES_FROM + 16) + 37, 5);
    let whole = reference::crc32(&data);
    for part in
        [CLMUL_FROM - 1, CLMUL_FROM, LANES_FROM - 1, LANES_FROM, LANES_FROM + 16, LANES_FROM + 17]
    {
        for (name, kernel) in KERNELS {
            let joined = data
                .chunks(part)
                .fold(crc32(b""), |crc, p| combine(crc, oneshot(kernel, p), p.len() as u64));
            assert_eq!(joined, whole, "{name} parts of {part}");
        }
    }
}

#[test]
fn combine_handles_empty_sides_and_a_megabyte_tail() {
    let a = noise(1000, 1);
    let b = noise((1 << 20) + 5, 2);
    let whole = reference::crc32(&[&a[..], &b[..]].concat());
    for (name, kernel) in KERNELS {
        let (crc_a, crc_b) = (oneshot(kernel, &a), oneshot(kernel, &b));
        assert_eq!(combine(crc_a, crc_b, b.len() as u64), whole, "{name}");
        assert_eq!(combine(crc_a, crc32(b""), 0), crc_a, "{name} empty b");
        assert_eq!(combine(crc32(b""), crc_b, b.len() as u64), crc_b, "{name} empty a");
    }
    assert_eq!(combine(crc32(b""), crc32(b""), 0), 0, "both empty");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sliced_equals_bytewise(data in proptest::collection::vec(any::<u8>(), 0..65536)) {
        let want = reference::crc32(&data);
        for (name, kernel) in KERNELS {
            prop_assert_eq!(oneshot(kernel, &data), want, "{}", name);
        }
    }

    /// `update` carries its state across calls, so where the input is cut
    /// (inside a block, on a boundary, into empty pieces, on either side of
    /// either threshold) cannot matter.
    #[test]
    fn streaming_split_anywhere_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
        cuts in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let mut at: Vec<usize> = cuts.iter().map(|c| *c as usize % (data.len() + 1)).collect();
        at.sort_unstable();
        let pieces: Vec<usize> =
            at.iter().scan(0, |from, &to| Some(to - std::mem::replace(from, to))).collect();
        let want = reference::crc32(&data);
        for (name, kernel) in KERNELS {
            prop_assert_eq!(streamed(kernel, &data, &pieces), want, "{}", name);
        }
    }

    #[test]
    fn combine_equals_hashing_the_concatenation(
        a in proptest::collection::vec(any::<u8>(), 0..4096),
        b in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let whole = reference::crc32(&[&a[..], &b[..]].concat());
        for (name, kernel) in KERNELS {
            let (crc_a, crc_b) = (oneshot(kernel, &a), oneshot(kernel, &b));
            prop_assert_eq!(combine(crc_a, crc_b, b.len() as u64), whole, "{}", name);
        }
    }
}
