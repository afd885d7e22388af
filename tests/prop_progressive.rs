//! Property-based tests for the progressive (fidelity-tiered) codec:
//! any tier prefix must decode, the f32 approximation error must be
//! non-increasing as tiers are added and within the bound the prefix
//! guarantees, and the full tier set must round-trip bit-exactly — for
//! arbitrary payloads and tier counts.

use fanstore_repro::compress::progressive::{
    decode_prefix, encode_tiers, max_abs_error, prefix_error_bound,
};
use fanstore_repro::compress::varint::{read_uvarint, write_uvarint};
use fanstore_repro::compress::CodecError;
use proptest::prelude::*;

/// `decode_prefix` into a fresh buffer.
fn decode(tiers: &[&[u8]], raw_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    decode_prefix(tiers, raw_len, &mut out).map(|()| out)
}

/// Payloads the tiering must survive: arbitrary bytes (including lengths
/// not divisible by 4), realistic float ramps, and degenerate lanes
/// (zeros, NaN/Inf bit patterns).
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048),
        // Smooth float ramp — the intended workload.
        (any::<f32>(), 1usize..512).prop_map(|(scale, n)| {
            let s = if scale.is_finite() { scale } else { 1.0 };
            (0..n).flat_map(|i| ((i as f32) * 0.01 * s).to_le_bytes()).collect()
        }),
        // Non-finite lanes: the tiering must treat them as opaque bits.
        proptest::collection::vec(
            prop_oneof![
                Just(f32::NAN.to_le_bytes()),
                Just(f32::INFINITY.to_le_bytes()),
                Just(f32::NEG_INFINITY.to_le_bytes()),
                Just(0.0f32.to_le_bytes()),
                Just((-0.0f32).to_le_bytes()),
            ],
            0..256
        )
        .prop_map(|lanes| lanes.into_iter().flatten().collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every prefix of the tier sequence decodes successfully and to the
    /// full length; the complete set restores the input exactly.
    #[test]
    fn every_prefix_decodes_and_full_set_is_lossless(
        data in payload_strategy(),
        tiers in 1u8..=8,
    ) {
        let encoded = encode_tiers(&data, tiers);
        prop_assert_eq!(encoded.len(), tiers as usize);
        for k in 1..=encoded.len() {
            let prefix: Vec<&[u8]> = encoded[..k].iter().map(Vec::as_slice).collect();
            let approx = decode(&prefix, data.len())
                .unwrap_or_else(|e| panic!("prefix {k}/{tiers} failed: {e}"));
            prop_assert_eq!(approx.len(), data.len(), "prefix {} length", k);
            if k == encoded.len() {
                prop_assert_eq!(&approx, &data, "full tier set must be exact");
            }
        }
    }

    /// Fidelity is monotone: adding a tier never increases the maximum
    /// absolute error over the finite f32 lanes.
    #[test]
    fn error_is_non_increasing_in_tier_count(
        data in payload_strategy(),
        tiers in 2u8..=8,
    ) {
        let encoded = encode_tiers(&data, tiers);
        let mut prev = f32::INFINITY;
        for k in 1..=encoded.len() {
            let prefix: Vec<&[u8]> = encoded[..k].iter().map(Vec::as_slice).collect();
            let approx = decode(&prefix, data.len()).unwrap();
            let err = max_abs_error(&data, &approx);
            prop_assert!(
                err <= prev,
                "error grew from {} to {} when tier {} was added",
                prev, err, k
            );
            prev = err;
        }
        prop_assert_eq!(prev, 0.0, "all tiers together must be exact");
    }

    /// A prefix's measured error stays within `prefix_error_bound`, the
    /// bound does not grow as tiers are added, and it is 0 at the full set —
    /// at every tier count, so for whichever tiers a tier read fetches.
    #[test]
    fn error_stays_within_the_prefix_bound(data in payload_strategy()) {
        for tiers in 1u8..=32 {
            let encoded = encode_tiers(&data, tiers);
            let mut prev = f32::INFINITY;
            for kept in 1..=tiers {
                let prefix: Vec<&[u8]> =
                    encoded[..usize::from(kept)].iter().map(Vec::as_slice).collect();
                let err = max_abs_error(&data, &decode(&prefix, data.len()).unwrap());
                let bound = prefix_error_bound(&data, tiers, kept);
                prop_assert!(err <= bound, "{}/{} tiers: error {} > bound {}", kept, tiers, err, bound);
                prop_assert!(bound <= prev, "{}/{} tiers: bound grew from {} to {}", kept, tiers, prev, bound);
                prev = bound;
            }
            prop_assert_eq!(prev, 0.0, "the full set of {} tiers is exact", tiers);
        }
    }

    /// Corrupting any single byte of any tier must produce an error or a
    /// wrong-but-bounded result — never a panic.
    #[test]
    fn corrupted_tiers_never_panic(
        data in proptest::collection::vec(any::<u8>(), 4..512),
        tiers in 1u8..=4,
        victim in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut encoded = encode_tiers(&data, tiers);
        let t = victim % encoded.len();
        if !encoded[t].is_empty() {
            let b = (victim / 7) % encoded[t].len();
            encoded[t][b] ^= flip;
            let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
            let _ = decode(&refs, data.len()); // must not panic
        }
    }

    /// A tier header is untrusted: one whose `body_len` claims 1 TiB, far
    /// beyond what its LZ4-stored bytes can decode to, is an error, never
    /// an allocation of that size.
    #[test]
    fn a_tier_claiming_a_huge_body_is_an_error(
        lanes in 256usize..2048,
        tiers in 1u8..=8,
        victim in any::<usize>(),
    ) {
        // Small integers: long runs of equal planes, so every tier's body
        // is stored LZ4-compressed.
        let data: Vec<u8> = (0..lanes).flat_map(|i| ((i % 16) as f32).to_le_bytes()).collect();
        let mut encoded = encode_tiers(&data, tiers);
        let t = victim % encoded.len();
        prop_assert_eq!(encoded[t][3], 1, "tier {} is LZ4-stored", t);
        let mut at = 4;
        read_uvarint(&encoded[t], &mut at).unwrap();
        let mut forged = encoded[t][..4].to_vec();
        write_uvarint(&mut forged, 1 << 40);
        forged.extend_from_slice(&encoded[t][at..]);
        encoded[t] = forged;
        let refs: Vec<&[u8]> = encoded[..=t].iter().map(Vec::as_slice).collect();
        prop_assert!(decode(&refs, data.len()).is_err());
    }
}
