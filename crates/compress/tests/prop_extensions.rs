//! Property tests for the extension codecs: FSE streams, the zstd-class
//! and bzip-class codecs, filters, and the SZ-style lossy coder's error
//! bound and hostile-header handling. The bit-plane prefix's error bound
//! is pinned in the root `tests/prop_progressive.rs`.

use fanstore_compress::bzip_lite::BzipLite;
use fanstore_compress::filters::{delta, shuffle, undelta, unshuffle};
use fanstore_compress::lossy::SzLite;
use fanstore_compress::varint::{read_uvarint, write_uvarint};
use fanstore_compress::zstd_lite::ZstdLite;
use fanstore_compress::{compress_to_vec, decompress_to_vec};
use proptest::prelude::*;

fn data_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..3000),
        (proptest::collection::vec(any::<u8>(), 1..48), 1usize..150).prop_map(|(block, reps)| {
            block.iter().copied().cycle().take(block.len() * reps).collect()
        }),
        proptest::collection::vec(prop_oneof![Just(0u8), Just(1), Just(b'x')], 0..3000),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn zstd_roundtrips(data in data_strategy()) {
        let codec = ZstdLite::new(4);
        let c = compress_to_vec(&codec, &data);
        prop_assert_eq!(decompress_to_vec(&codec, &c, data.len()).unwrap(), data);
    }

    #[test]
    fn bzip_roundtrips(data in data_strategy()) {
        let codec = BzipLite::new(2);
        let c = compress_to_vec(&codec, &data);
        prop_assert_eq!(decompress_to_vec(&codec, &c, data.len()).unwrap(), data);
    }

    #[test]
    fn zstd_and_bzip_survive_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..1024),
                                     n in 0usize..4096) {
        let _ = decompress_to_vec(&ZstdLite::new(4), &garbage, n);
        let _ = decompress_to_vec(&BzipLite::new(2), &garbage, n);
    }

    #[test]
    fn filters_are_exact_inverses(data in proptest::collection::vec(any::<u8>(), 0..2000),
                                  shuffle_width in 2usize..16,
                                  delta_width in 1usize..9) {
        prop_assert_eq!(unshuffle(&shuffle(&data, shuffle_width), shuffle_width), data.clone());
        prop_assert_eq!(undelta(&delta(&data, delta_width), delta_width), data);
    }

    #[test]
    fn sz_error_bound_holds_for_arbitrary_floats(
        raw in proptest::collection::vec(-1e6f32..1e6, 1..800),
        eb_exp in -4i32..0,
    ) {
        let eb = 10f32.powi(eb_exp);
        let sz = SzLite::new(eb);
        let c = sz.compress(&raw);
        let restored = sz.decompress(&c, raw.len()).unwrap();
        for (a, b) in raw.iter().zip(&restored) {
            prop_assert!((a - b).abs() <= eb * 1.0001,
                "eb {eb}: {a} vs {b} (err {})", (a - b).abs());
        }
    }

    #[test]
    fn lossy_never_panics_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..512),
                                     n in 0usize..512) {
        let _ = SzLite::new(1e-3).decompress(&garbage, n);
    }
}

/// Random garbage almost never forms a valid header whose escape count or
/// bitstream length is near `u64::MAX`, so two crafted ones pin that such
/// counts are errors, not overflowing offsets (a panic with overflow
/// checks, a huge allocation or a reversed slice without).
#[test]
fn sz_rejects_header_lengths_that_overflow_an_offset() {
    let sz = SzLite::new(1e-3);
    let mut huge_escapes = 1e-3f32.to_le_bytes().to_vec();
    write_uvarint(&mut huge_escapes, 3);
    write_uvarint(&mut huge_escapes, 1 << 62);
    assert!(sz.decompress(&huge_escapes, 3).is_err());

    // A valid stream whose bitstream length is replaced by `u64::MAX`.
    let stream = sz.compress(&[1.0, 2.0, 3.0]);
    let mut pos = 4;
    read_uvarint(&stream, &mut pos).unwrap();
    let escapes = read_uvarint(&stream, &mut pos).unwrap() as usize;
    pos += 4 * escapes;
    let used = read_uvarint(&stream, &mut pos).unwrap();
    for _ in 0..used {
        read_uvarint(&stream, &mut pos).unwrap();
        pos += 1;
    }
    let mut huge_bits = stream[..pos].to_vec();
    read_uvarint(&stream, &mut pos).unwrap();
    write_uvarint(&mut huge_bits, u64::MAX);
    huge_bits.extend_from_slice(&stream[pos..]);
    assert!(sz.decompress(&huge_bits, 3).is_err());
}
