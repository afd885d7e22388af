//! Property-based tests for the QoS token bucket: whatever the admit
//! schedule, a bucket must never hand out more than `rate * elapsed +
//! burst` tokens, must behave identically on identical schedules (the
//! chaos-suite determinism contract extends to admission control), and
//! must never let idle time accumulate credit beyond the burst.

use fanstore_repro::store::qos::TokenBucket;
use proptest::prelude::*;

/// A monotone admit schedule: cumulative instants (us) built from gaps,
/// including repeated instants (gap 0) — the clock may not advance
/// between calls.
fn schedule() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..200_000, 1..200).prop_map(|gaps| {
        let mut t = 0u64;
        gaps.into_iter()
            .map(|g| {
                t += g;
                t
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: admissions over any schedule never exceed the
    /// tokens that could exist — the initial burst plus everything the
    /// refill rate generated across the elapsed window (+1 for f64
    /// accumulation slack).
    #[test]
    fn admissions_never_exceed_rate_times_elapsed_plus_burst(
        times in schedule(),
        rate_per_s in 0.0f64..50_000.0,
        burst in 0u32..64,
    ) {
        let bucket = TokenBucket::new(rate_per_s, burst);
        let admitted = times.iter().filter(|&&t| bucket.try_admit(t)).count() as f64;
        let elapsed = *times.last().expect("non-empty schedule") as f64;
        let ceiling = elapsed * rate_per_s / 1e6 + f64::from(burst) + 1.0;
        prop_assert!(
            admitted <= ceiling,
            "admitted {admitted} > rate*t+burst = {ceiling} \
             (rate {rate_per_s}/s, burst {burst}, elapsed {elapsed}us)"
        );
    }

    /// Determinism: two buckets fed the same schedule make identical
    /// admit/refuse decisions at every step.
    #[test]
    fn identical_schedules_make_identical_decisions(
        times in schedule(),
        rate_per_s in 0.0f64..50_000.0,
        burst in 0u32..64,
    ) {
        let a = TokenBucket::new(rate_per_s, burst);
        let b = TokenBucket::new(rate_per_s, burst);
        for (i, &t) in times.iter().enumerate() {
            prop_assert_eq!(a.try_admit(t), b.try_admit(t), "decision {} diverged", i);
        }
    }

    /// No idle rollover: however long the bucket sat unused, a burst of
    /// calls at one instant admits at most `burst` operations.
    #[test]
    fn idle_time_never_accumulates_beyond_burst(
        idle_us in 0u64..u64::from(u32::MAX),
        calls in 1usize..256,
        rate_per_s in 0.0f64..50_000.0,
        burst in 0u32..64,
    ) {
        let bucket = TokenBucket::new(rate_per_s, burst);
        let admitted = (0..calls).filter(|_| bucket.try_admit(idle_us)).count();
        prop_assert!(
            admitted <= burst as usize,
            "admitted {admitted} > burst {burst} after {idle_us}us idle"
        );
    }
}
