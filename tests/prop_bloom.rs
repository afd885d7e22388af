//! Property tests for the WAL's per-segment bloom filters. Two promises
//! matter: **no false negative, ever** (a false negative would make a
//! durable write unreadable — the filter would skip the one segment
//! holding it), and a false-positive rate that stays within 2x of the
//! configured target (a blown FP rate silently turns "negative lookups
//! never touch segment data" into wishful thinking). The FP bound is
//! checked both at segment-realistic small key counts — where naive
//! double hashing degrades by orders of magnitude — and at 1M keys.

use fanstore_repro::store::wal::BloomFilter;
use proptest::prelude::*;

/// Strategy for keys shaped like the store's paths.
fn key_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9_]{1,10}", 1..4).prop_map(|segs| segs.join("/"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every inserted key answers "maybe present" — regardless of key
    /// set, capacity hint, or FP target.
    #[test]
    fn never_a_false_negative(
        keys in proptest::collection::vec(key_strategy(), 1..200),
        extra_capacity in 0usize..64,
        fp in 0.0001f64..0.2,
    ) {
        let filter = BloomFilter::from_keys(
            keys.iter().map(String::as_str),
            keys.len() + extra_capacity,
            fp,
        );
        for key in &keys {
            prop_assert!(filter.contains(key), "inserted key {key} reported absent");
        }
    }

    /// Decode(encode(f)) answers identically to f for members and
    /// non-members alike — a serialised segment filter is the filter.
    #[test]
    fn roundtrip_preserves_answers(
        keys in proptest::collection::vec(key_strategy(), 1..100),
        probes in proptest::collection::vec(key_strategy(), 1..100),
    ) {
        let filter =
            BloomFilter::from_keys(keys.iter().map(String::as_str), keys.len(), 0.01);
        let back = BloomFilter::decode(&filter.encode()).unwrap();
        prop_assert_eq!(back.len(), filter.len());
        for key in keys.iter().chain(&probes) {
            prop_assert_eq!(back.contains(key), filter.contains(key));
        }
    }

    /// Over-filling past the capacity hint never loses a key (the FP
    /// rate degrades, membership must not).
    #[test]
    fn overfill_still_has_no_false_negatives(
        keys in proptest::collection::vec(key_strategy(), 20..120),
    ) {
        let filter = BloomFilter::from_keys(keys.iter().map(String::as_str), 10, 0.01);
        for key in &keys {
            prop_assert!(filter.contains(key), "overfilled filter lost key {key}");
        }
    }
}

/// Measured FP rate over `probes` absent keys for a filter holding `n`.
fn fp_rate(n: usize, target: f64, probes: usize) -> f64 {
    let keys: Vec<String> = (0..n).map(|i| format!("out/obj-{i:06}.bin")).collect();
    let filter = BloomFilter::from_keys(keys.iter().map(String::as_str), n, target);
    let fps = (0..probes).filter(|i| filter.contains(&format!("absent/probe-{i}.bin"))).count();
    fps as f64 / probes as f64
}

/// The headline bound: at 1M keys the measured FP rate stays within 2x
/// of the configured target. Debug builds shrink to 100k keys — the
/// construction is size-oblivious, release CI checks the full million.
#[test]
fn fp_rate_within_2x_of_target_at_1m_keys() {
    let (n, probes) =
        if cfg!(debug_assertions) { (100_000, 100_000) } else { (1_000_000, 500_000) };
    for target in [0.01, 0.001] {
        let rate = fp_rate(n, target, probes);
        assert!(rate <= target * 2.0, "n={n}: measured FP rate {rate} beyond 2x target {target}");
    }
}

/// Segment-realistic small filters — the regime where an arithmetic-
/// progression probe sequence once inflated the FP rate ~100x past the
/// target. The slack term keeps the tiny-sample binomial noise at these
/// probe counts from flaking the 2x bound.
#[test]
fn fp_rate_holds_for_small_segments() {
    let target = 0.001;
    let probes = 200_000;
    for n in [1usize, 2, 3, 5, 8, 13, 21, 64, 256] {
        let rate = fp_rate(n, target, probes);
        let slack = 30.0 / probes as f64;
        assert!(
            rate <= target * 2.0 + slack,
            "n={n}: measured FP rate {rate} beyond 2x target {target}"
        );
    }
}
