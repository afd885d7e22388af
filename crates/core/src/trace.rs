//! Request-scoped span tracing: a bounded ring of [`SpanEvent`]s per node.
//!
//! Each span is one timed stage of a request — minted per client op and
//! carried through the fabric into the daemon — so one GET can be
//! reassembled into a client→fabric→daemon→client timeline
//! ([`crate::attrib`], `fanstore report`). Spans are read in memory
//! ([`TraceRecorder::spans`]). Counts (the §II-B call mix included) live
//! in [`crate::metrics`], not here.

use parking_lot::Mutex;

/// One timed stage of a request: which request it belongs to, which
/// rank recorded it, the stage name (`client.get`, `fabric.rpc`,
/// `daemon.serve`, `client.decompress`, …), and its interval on the
/// process-wide microsecond clock ([`crate::metrics::now_us`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Request id the span belongs to (0 = outside any request).
    pub request: u64,
    /// Rank that recorded the span.
    pub rank: u32,
    /// Stage name, dot-separated like metric names.
    pub stage: String,
    /// Start, microseconds on the shared clock.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// A bounded overwrite-oldest ring. Unlike a plain `Vec` guard, a full
/// ring keeps the *latest* `cap` entries — the tail of a long run
/// survives, which is what post-mortem debugging wants.
struct Ring<T> {
    buf: Vec<T>,
    /// Next write position once the buffer has wrapped.
    next: usize,
    cap: usize,
}

impl<T: Clone> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring { buf: Vec::with_capacity(cap.min(4096)), next: 0, cap }
    }

    fn push(&mut self, item: T) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.next] = item;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Entries oldest-first.
    fn entries(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

/// Concurrent recorder of request spans into a bounded ring.
pub struct TraceRecorder {
    spans: Mutex<Ring<SpanEvent>>,
}

impl TraceRecorder {
    /// Create with a span ring of `ring_cap` entries (0 keeps nothing).
    pub fn new(ring_cap: usize) -> Self {
        TraceRecorder { spans: Mutex::new(Ring::new(ring_cap)) }
    }

    /// Record one request-scoped span.
    pub fn record_span(&self, span: SpanEvent) {
        self.spans.lock().push(span);
    }

    /// The recorded spans, oldest-first (the latest `ring_cap` of the run).
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.spans.lock().entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u64) -> SpanEvent {
        SpanEvent {
            request,
            rank: 1,
            stage: "client.get".into(),
            start_us: 10 * request,
            dur_us: 5,
        }
    }

    #[test]
    fn ring_bounded() {
        let t = TraceRecorder::new(3);
        for i in 0..10 {
            t.record_span(span(i));
        }
        assert_eq!(t.spans().len(), 3);
        let off = TraceRecorder::new(0);
        off.record_span(span(1));
        assert!(off.spans().is_empty(), "a 0-slot ring keeps nothing");
    }

    #[test]
    fn ring_keeps_the_tail() {
        // A genuine ring overwrites the oldest entry: after 10 records
        // into a 3-slot ring, the survivors are the LAST three, in order.
        let t = TraceRecorder::new(3);
        for i in 0..10 {
            t.record_span(span(i));
        }
        let ids: Vec<u64> = t.spans().into_iter().map(|s| s.request).collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }

    #[test]
    fn spans_roundtrip_and_ring() {
        let t = TraceRecorder::new(2);
        for i in 0..4u64 {
            t.record_span(span(0xabc0 + i));
        }
        // Overwrite-oldest: the last two survive.
        let kept = t.spans();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0], span(0xabc2));
    }

    #[test]
    fn concurrent_recording() {
        let t = std::sync::Arc::new(TraceRecorder::new(4000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..1000 {
                        t.record_span(span(i));
                    }
                });
            }
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4000);
        assert_eq!(spans.iter().map(|s| s.request).sum::<u64>(), 4 * 999 * 1000 / 2);
    }
}
