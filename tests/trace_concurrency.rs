//! The span ring under concurrent multi-writer load: 8 threads hammer
//! one recorder, and the overwrite-oldest contract must hold — a full
//! ring keeps exactly the *newest* `cap` pushes, each writer's retained
//! spans are a contiguous suffix of its write order (never torn, never
//! reordered), and request-id joins (all spans of one request) still
//! resolve for the requests young enough to be fully retained.

use std::sync::Arc;

use fanstore_repro::store::attrib::attribute;
use fanstore_repro::store::trace::{SpanEvent, TraceRecorder};

const THREADS: u64 = 8;
const SPANS_PER_REQUEST: u64 = 3;
const REQUESTS_PER_THREAD: u64 = 200;
const STAGES: [&str; SPANS_PER_REQUEST as usize] = ["client.get", "fabric.rpc", "daemon.serve"];

/// The request ids thread `t` writes, oldest first.
fn request_id(thread: u64, i: u64) -> u64 {
    (thread << 32) | (i + 1)
}

fn hammer(ring_cap: usize) -> Vec<SpanEvent> {
    let t = Arc::new(TraceRecorder::new(ring_cap));
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let t = Arc::clone(&t);
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let request = request_id(thread, i);
                    for (k, stage) in STAGES.iter().enumerate() {
                        t.record_span(SpanEvent {
                            request,
                            rank: thread as u32,
                            stage: stage.to_string(),
                            start_us: i * 10 + k as u64,
                            dur_us: 10 - k as u64,
                        });
                    }
                }
            });
        }
    });
    t.spans()
}

/// A thread-local write-order key: the n-th span thread `t` wrote has
/// key n.
fn write_key(s: &SpanEvent) -> u64 {
    let stage_idx = STAGES.iter().position(|x| *x == s.stage).unwrap() as u64;
    ((s.request & 0xffff_ffff) - 1) * SPANS_PER_REQUEST + stage_idx
}

#[test]
fn full_ring_keeps_newest_spans_untorn() {
    // Ring far smaller than the workload: 8 * 200 * 3 = 4800 writes
    // into 1024 slots -> heavy overwrite under contention.
    let cap = 1024;
    let spans = hammer(cap);
    assert_eq!(spans.len(), cap, "a full ring holds exactly cap spans");

    for thread in 0..THREADS {
        let mine: Vec<&SpanEvent> = spans.iter().filter(|s| s.rank == thread as u32).collect();
        // Nothing torn: every retained span is byte-coherent with what
        // this thread wrote.
        for s in &mine {
            assert!(STAGES.contains(&s.stage.as_str()), "torn span {s:?}");
            assert_eq!(s.request >> 32, thread, "span under the wrong writer: {s:?}");
        }
        // Overwrite-oldest, per writer: this thread's pushes enter the
        // global order in its own program order, and the ring keeps the
        // globally newest cap pushes — so whatever survives must be a
        // contiguous, in-order *suffix* of the thread's writes (how
        // much survives depends on scheduling; the shape never does).
        let keys: Vec<u64> = mine.iter().map(|s| write_key(s)).collect();
        if let Some(&first) = keys.first() {
            let expected: Vec<u64> = (first..first + keys.len() as u64).collect();
            assert_eq!(keys, expected, "thread {thread}: retained spans are not a suffix");
            assert_eq!(
                *keys.last().unwrap(),
                REQUESTS_PER_THREAD * SPANS_PER_REQUEST - 1,
                "thread {thread}: its newest span was evicted while older ones survived"
            );
        }
    }
}

#[test]
fn request_joins_resolve_after_overwrite() {
    let cap = 1024;
    let spans = hammer(cap);
    let attrs = attribute(&spans);

    // Each writer has at most one request straddling its eviction
    // cutoff, so of the 1024 retained spans at most 8 * 2 belong to
    // partially-retained requests — everything else must join complete.
    let complete: Vec<_> = attrs.iter().filter(|a| a.spans == SPANS_PER_REQUEST as usize).collect();
    let min_complete = (cap - THREADS as usize * 2) / SPANS_PER_REQUEST as usize;
    assert!(
        complete.len() >= min_complete,
        "only {} of >= {min_complete} expected complete joins",
        complete.len()
    );

    // The joins carry the structure attribution needs: a root, exact
    // decomposition, single-rank bookkeeping.
    for a in &complete {
        assert_eq!(a.root_stage, "client.get", "{a:?}");
        assert_eq!(a.ranks, 1);
        assert_eq!(a.segments.iter().sum::<u64>() + a.residual_us, a.wall_us, "{a:?}");
    }
}

#[test]
fn oversized_ring_loses_nothing() {
    let total = (THREADS * REQUESTS_PER_THREAD * SPANS_PER_REQUEST) as usize;
    let spans = hammer(total + 16);
    assert_eq!(spans.len(), total, "no overwrite below capacity");
    let attrs = attribute(&spans);
    assert_eq!(attrs.len(), (THREADS * REQUESTS_PER_THREAD) as usize);
    assert!(attrs.iter().all(|a| a.spans == SPANS_PER_REQUEST as usize));
}
