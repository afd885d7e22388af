//! Property-based tests for the log-linear latency histogram — the
//! invariants every exported quantile rests on — plus a multi-thread
//! recording test for the lock-free hot path.

use std::sync::Arc;

use fanstore_repro::store::metrics::{Histogram, MetricsRegistry};
use proptest::prelude::*;

/// Values spread across the full dynamic range (latencies are ~1 us to
/// minutes, but the histogram must hold any `u64`).
fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1024,          // exact range + first log buckets
        1024u64..10_000_000, // microsecond latencies
        any::<u64>(),        // the whole range
    ]
}

fn recorded(reg: &MetricsRegistry, values: &[u64]) -> Arc<Histogram> {
    let h = reg.histogram("h");
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every value lands in a bucket that brackets it, and the bucket is
    /// never wider than the advertised ~1.6% relative precision.
    #[test]
    fn bucket_brackets_value_within_precision(v in value_strategy()) {
        let (low, high) = Histogram::bounds_of(v);
        prop_assert!(low <= v && v <= high, "{v} outside [{low}, {high}]");
        if low >= 128 {
            prop_assert!(
                (high - low) as f64 <= low as f64 / 63.0,
                "bucket [{low}, {high}] wider than precision"
            );
        } else {
            prop_assert_eq!(low, high, "values below 2^7 are exact");
        }
    }

    /// Merging two histograms is indistinguishable from having recorded
    /// the union of both value streams.
    #[test]
    fn merge_equals_union(
        a in proptest::collection::vec(value_strategy(), 0..200),
        b in proptest::collection::vec(value_strategy(), 0..200),
    ) {
        let reg = MetricsRegistry::new();
        let ha = recorded(&reg, &a);
        let hb = reg.histogram("b");
        for &v in &b {
            hb.record(v);
        }
        ha.merge(&hb);

        let union: Vec<u64> = a.iter().chain(&b).copied().collect();
        let hu = recorded(&MetricsRegistry::new(), &union);
        prop_assert_eq!(ha.summary(), hu.summary());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q), "q = {}", q);
        }
    }

    /// Quantile estimates are monotone in `q` and stay inside the
    /// observed `[min, max]`.
    #[test]
    fn quantiles_monotone_and_bounded(
        values in proptest::collection::vec(value_strategy(), 1..300),
    ) {
        let h = recorded(&MetricsRegistry::new(), &values);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let estimates: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for pair in estimates.windows(2) {
            prop_assert!(pair[0] <= pair[1], "quantiles must be monotone: {estimates:?}");
        }
        prop_assert!(*estimates.first().unwrap() >= h.min());
        prop_assert!(*estimates.last().unwrap() <= h.max());
        prop_assert_eq!(estimates[7], h.max(), "q=1.0 is the observed max");
    }

    /// count/sum/min/max are exact regardless of bucketing.
    #[test]
    fn moments_are_exact(values in proptest::collection::vec(0u64..1u64 << 40, 1..200)) {
        let h = recorded(&MetricsRegistry::new(), &values);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
    }

    /// Snapshot deltas subtract counters and histogram count/sum exactly.
    #[test]
    fn snapshot_delta_matches_increment(
        before in 0u64..1000,
        extra in 0u64..1000,
    ) {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.add(before);
        let snap = reg.snapshot();
        c.add(extra);
        prop_assert_eq!(reg.snapshot().delta(&snap).counter("c"), extra);
    }
}

/// Four threads hammer one histogram; totals must come out exact and the
/// quantiles must reflect every thread's stream (the lock-free claim).
#[test]
fn concurrent_recording_is_lossless() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;
    let reg = MetricsRegistry::new();
    let h = reg.histogram("contended");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Distinct per-thread ranges so a lost update would
                    // also skew the quantiles, not just the count.
                    h.record(t * PER_THREAD + i);
                }
            });
        }
    });
    let n = THREADS * PER_THREAD;
    assert_eq!(h.count(), n);
    assert_eq!(h.sum(), n * (n - 1) / 2);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), n - 1);
    let p50 = h.quantile(0.5);
    let mid = n / 2;
    assert!((p50 as f64 - mid as f64).abs() <= mid as f64 / 32.0, "p50 {p50} too far from {mid}");
}
