//! Critical-path attribution: joins the cross-rank span trees recorded
//! by the tracer (client.get / client.get_many → fabric.rpc →
//! daemon.queue → daemon.serve → client.decompress) per [`RequestId`] and
//! decomposes each request's wall time into named segments with an
//! explicit residual.
//!
//! The decomposition is a priority sweep over the request's spans, all
//! of which share one monotonic clock (see `metrics::now_us`). Each
//! elementary slice of time between span boundaries is charged to the
//! highest-priority span covering it:
//!
//! | priority | stage                                  | segment     |
//! |----------|----------------------------------------|-------------|
//! | 5        | `daemon.write_serve`                   | `serve`     |
//! | 4        | `daemon.serve`                         | `serve`     |
//! | 3        | `daemon.queue`                         | `queue`     |
//! | 2        | `client.decompress`, `client.assemble` | `decode`    |
//! | 1        | `fabric.rpc`                           | `network`   |
//! | 0        | root client ops                        | `cache`     |
//! | –        | none                                   | residual    |
//!
//! No stage maps to `admission`: it stays first in [`SEGMENTS`], always
//! 0, because fsbench labels the segments by position.
//!
//! Root client ops are `client.get`, `client.get_many`, `client.put`
//! (the write path's root span, whose serve leg is the daemon's
//! `daemon.write_serve`) and `client.range` (the byte-range read path,
//! whose decode leg is `client.assemble` — chunk stitching rather than
//! decompression).
//!
//! `network` is therefore RPC time *not* explained by the daemon's
//! queue or service; `cache` is time inside the root client span not
//! explained by any child (cache probes, placement math, local reads).
//! Every read finishes inside its root, a batch's decodes included, so
//! time no recognised span covers — outside the root, or anywhere in a
//! request whose root the ring dropped — is the **residual**, reported
//! explicitly rather than smeared into a category. The named segments
//! plus the residual always sum to the wall time exactly, so
//! `coverage()` honestly reports how much of the request the tracer
//! explained.
//!
//! [`RequestId`]: crate::trace::SpanEvent::request

use crate::trace::SpanEvent;
use std::collections::BTreeMap;

/// Segment names, in fixed report order. Indexes into
/// [`RequestAttribution::segments`]. `SEGMENTS[0]` is never charged; it
/// stays because fsbench's `ATTRIB_SHARES` labels these by position.
pub const SEGMENTS: [&str; 6] = ["admission", "queue", "network", "serve", "decode", "cache"];

/// `(segment index, sweep priority)` for a span stage; `None` for
/// stages the sweep does not recognise (their un-covered time lands in
/// the residual).
fn classify(stage: &str) -> Option<(usize, u8)> {
    match stage {
        // daemon.write_serve shadows the generic daemon.serve span the
        // dispatch loop also records for a PUT: same segment, one notch
        // higher priority, so write serving charges to `serve` exactly
        // once.
        "daemon.write_serve" => Some((3, 5)),
        "daemon.serve" => Some((3, 4)),
        "daemon.queue" => Some((1, 3)),
        // Chunk assembly after a ranged fetch is decode-side work, same
        // slot and priority as decompression.
        "client.decompress" | "client.assemble" => Some((4, 2)),
        "fabric.rpc" => Some((2, 1)),
        "client.get" | "client.get_many" | "client.put" | "client.range" => Some((5, 0)),
        _ => None,
    }
}

/// One request's wall time, decomposed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAttribution {
    /// The request id (rank in the top 16 bits).
    pub request: u64,
    /// Rank that recorded the root span (the lowest-priority span seen;
    /// falls back to the earliest span's rank when no root was traced).
    pub root_rank: u32,
    /// Stage name of the root span (`client.get`, `client.get_many`, …).
    pub root_stage: String,
    /// Earliest span start, microseconds on the shared clock.
    pub start_us: u64,
    /// `last end - first start` over every span of the request.
    pub wall_us: u64,
    /// Microseconds per segment, indexed like [`SEGMENTS`].
    pub segments: [u64; 6],
    /// Wall time covered by no recognised span. Always
    /// `wall_us - segments.sum()`, never negative.
    pub residual_us: u64,
    /// Number of spans joined for this request.
    pub spans: usize,
    /// Distinct ranks that contributed spans.
    pub ranks: usize,
}

impl RequestAttribution {
    /// Microseconds attributed to the named segment.
    pub fn segment(&self, name: &str) -> u64 {
        SEGMENTS.iter().position(|s| *s == name).map(|i| self.segments[i]).unwrap_or(0)
    }

    /// Fraction of the wall time explained by named segments
    /// (`1.0` when the residual is zero; `1.0` for zero-length walls).
    pub fn coverage(&self) -> f64 {
        if self.wall_us == 0 {
            1.0
        } else {
            (self.wall_us - self.residual_us) as f64 / self.wall_us as f64
        }
    }
}

/// Join `spans` by request id and attribute each request's wall time.
/// Spans with `request == 0` (outside any request) are ignored. The
/// result is sorted by request id, so same-input calls are identical.
pub fn attribute(spans: &[SpanEvent]) -> Vec<RequestAttribution> {
    let mut by_request: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for s in spans {
        if s.request != 0 {
            by_request.entry(s.request).or_default().push(s);
        }
    }
    by_request.into_iter().map(|(request, group)| attribute_one(request, &group)).collect()
}

fn attribute_one(request: u64, group: &[&SpanEvent]) -> RequestAttribution {
    let start_us = group.iter().map(|s| s.start_us).min().unwrap_or(0);
    let end_us = group.iter().map(|s| s.start_us + s.dur_us).max().unwrap_or(start_us);
    let wall_us = end_us - start_us;

    // Root = the lowest-priority classified span; ties (and the no-root
    // case) resolve to the earliest span so the choice is deterministic.
    let mut root: Option<(&SpanEvent, u8)> = None;
    for s in group {
        let prio = classify(&s.stage).map(|(_, p)| p).unwrap_or(u8::MAX);
        let better = match root {
            None => true,
            Some((r, rp)) => (prio, s.start_us, s.rank) < (rp, r.start_us, r.rank),
        };
        if better {
            root = Some((s, prio));
        }
    }
    let (root_rank, root_stage) =
        root.map(|(s, _)| (s.rank, s.stage.clone())).unwrap_or((0, String::new()));

    // Priority sweep: charge every elementary inter-boundary slice to
    // the highest-priority covering span; uncovered slices go to the
    // residual.
    let mut intervals: Vec<(u64, u64, usize, u8)> = Vec::with_capacity(group.len());
    let mut points: Vec<u64> = Vec::with_capacity(group.len() * 2);
    for s in group {
        points.push(s.start_us);
        points.push(s.start_us + s.dur_us);
        if let Some((idx, prio)) = classify(&s.stage) {
            intervals.push((s.start_us, s.start_us + s.dur_us, idx, prio));
        }
    }
    points.sort_unstable();
    points.dedup();

    let mut segments = [0u64; 6];
    let mut residual_us = 0u64;
    for w in points.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let best = intervals
            .iter()
            .filter(|(s, e, _, _)| *s <= lo && *e >= hi)
            .max_by_key(|(_, _, _, p)| *p);
        match best {
            Some((_, _, idx, _)) => segments[*idx] += hi - lo,
            None => residual_us += hi - lo,
        }
    }

    let mut ranks: Vec<u32> = group.iter().map(|s| s.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();

    RequestAttribution {
        request,
        root_rank,
        root_stage,
        start_us,
        wall_us,
        segments,
        residual_us,
        spans: group.len(),
        ranks: ranks.len(),
    }
}

/// Segment totals over many requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Requests folded in.
    pub requests: usize,
    /// Sum of per-request wall times.
    pub total_wall_us: u64,
    /// Summed segment times, indexed like [`SEGMENTS`].
    pub totals: [u64; 6],
    /// Summed residuals.
    pub residual_us: u64,
}

impl Aggregate {
    /// Fraction of total wall time explained by named segments.
    pub fn coverage(&self) -> f64 {
        if self.total_wall_us == 0 {
            1.0
        } else {
            (self.total_wall_us - self.residual_us) as f64 / self.total_wall_us as f64
        }
    }

    /// The dominant segment: `(name, total µs)`. Ties resolve to the
    /// earlier [`SEGMENTS`] entry. `("none", 0)` with no data.
    pub fn bottleneck(&self) -> (&'static str, u64) {
        let mut best = ("none", 0u64);
        for (i, name) in SEGMENTS.iter().enumerate() {
            if self.totals[i] > best.1 {
                best = (name, self.totals[i]);
            }
        }
        best
    }
}

/// Fold per-request attributions into totals.
pub fn aggregate(attrs: &[RequestAttribution]) -> Aggregate {
    let mut agg = Aggregate { requests: attrs.len(), ..Aggregate::default() };
    for a in attrs {
        agg.total_wall_us += a.wall_us;
        agg.residual_us += a.residual_us;
        for i in 0..SEGMENTS.len() {
            agg.totals[i] += a.segments[i];
        }
    }
    agg
}

/// Render a per-stage bottleneck table (markdown), segments sorted by
/// total time descending, residual last, with shares of total wall.
pub fn bottleneck_table(attrs: &[RequestAttribution]) -> String {
    let agg = aggregate(attrs);
    let mut rows: Vec<(&str, u64)> =
        SEGMENTS.iter().enumerate().map(|(i, n)| (*n, agg.totals[i])).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let share = |us: u64| {
        if agg.total_wall_us == 0 {
            0.0
        } else {
            100.0 * us as f64 / agg.total_wall_us as f64
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "requests: {}   total wall: {} us   coverage: {:.1}%\n",
        agg.requests,
        agg.total_wall_us,
        100.0 * agg.coverage()
    ));
    out.push_str("| segment | total us | share | mean us/req |\n");
    out.push_str("|---|---:|---:|---:|\n");
    let mean = |us: u64| if agg.requests == 0 { 0.0 } else { us as f64 / agg.requests as f64 };
    for (name, us) in rows {
        out.push_str(&format!("| {} | {} | {:.1}% | {:.1} |\n", name, us, share(us), mean(us)));
    }
    out.push_str(&format!(
        "| residual | {} | {:.1}% | {:.1} |\n",
        agg.residual_us,
        share(agg.residual_us),
        mean(agg.residual_us)
    ));
    out
}

/// A timing-free structural signature of the joined trees: for each
/// request, the root stage and the sorted multiset of `(stage, rank)`
/// spans. Two same-seed runs must produce identical signatures even
/// though raw timings differ — the determinism tests pin this.
pub fn signature(spans: &[SpanEvent]) -> String {
    let attrs = attribute(spans);
    let mut by_request: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for s in spans {
        if s.request != 0 {
            by_request.entry(s.request).or_default().push(format!("{}@{}", s.stage, s.rank));
        }
    }
    let mut out = String::new();
    for a in &attrs {
        let mut stages = by_request.remove(&a.request).unwrap_or_default();
        stages.sort();
        out.push_str(&format!(
            "{:x} root={}@{} spans=[{}]\n",
            a.request,
            a.root_stage,
            a.root_rank,
            stages.join(",")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u64, rank: u32, stage: &str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent { request, rank, stage: stage.to_string(), start_us, dur_us }
    }

    #[test]
    fn segments_plus_residual_equal_wall_exactly() {
        // root [0,100], rpc [10,60], serve [20,40], decode [70,90]:
        // queue 0, network 10..20 + 40..60 = 30, serve 20,
        // decode 20, cache 0..10 + 60..70 + 90..100 = 30, residual 0.
        let spans = vec![
            span(7, 0, "client.get", 0, 100),
            span(7, 0, "fabric.rpc", 10, 50),
            span(7, 1, "daemon.serve", 20, 20),
            span(7, 0, "client.decompress", 70, 20),
        ];
        let attrs = attribute(&spans);
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        assert_eq!(a.wall_us, 100);
        assert_eq!(a.segment("network"), 30);
        assert_eq!(a.segment("serve"), 20);
        assert_eq!(a.segment("decode"), 20);
        assert_eq!(a.segment("cache"), 30);
        assert_eq!(a.residual_us, 0);
        assert_eq!(a.segments.iter().sum::<u64>() + a.residual_us, a.wall_us);
        assert_eq!(a.root_stage, "client.get");
        assert_eq!(a.ranks, 2);
        assert!((a.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_and_unknown_time_is_residual_not_hidden() {
        // Disjoint rpc spans with a gap, plus an unknown stage: the gap
        // and the unknown-only time must land in the residual.
        let spans = vec![
            span(3, 0, "fabric.rpc", 0, 10),
            span(3, 0, "fabric.rpc", 30, 10),
            span(3, 0, "daemon.flush", 50, 5),
        ];
        let a = &attribute(&spans)[0];
        assert_eq!(a.wall_us, 55);
        assert_eq!(a.segment("network"), 20);
        assert_eq!(a.residual_us, 35, "gap 10..30 plus unknown 40..55");
        assert_eq!(a.segments.iter().sum::<u64>() + a.residual_us, a.wall_us);
        assert!(a.coverage() < 0.4);
    }

    #[test]
    fn queue_outranks_network() {
        let spans = vec![
            span(9, 0, "client.get", 0, 100),
            span(9, 0, "fabric.rpc", 10, 80),
            span(9, 1, "daemon.queue", 20, 30),
            span(9, 1, "daemon.serve", 50, 30),
        ];
        let a = &attribute(&spans)[0];
        assert_eq!(a.segments[0], 0, "no stage is charged to SEGMENTS[0]");
        assert_eq!(a.segment("queue"), 30);
        assert_eq!(a.segment("serve"), 30);
        assert_eq!(a.segment("network"), 20, "rpc minus queue minus serve");
        assert_eq!(a.segment("cache"), 20, "root head 0..10 and tail 90..100");
        assert_eq!(a.residual_us, 0);
    }

    #[test]
    fn request_zero_ignored_and_requests_sorted() {
        let spans = vec![
            span(0, 0, "client.get", 0, 5),
            span(2, 0, "client.get", 10, 5),
            span(1, 1, "client.get_many", 0, 5),
        ];
        let attrs = attribute(&spans);
        assert_eq!(attrs.iter().map(|a| a.request).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(attrs[0].root_stage, "client.get_many");
    }

    #[test]
    fn aggregate_and_bottleneck() {
        let spans = vec![
            span(1, 0, "client.get", 0, 100),
            span(1, 0, "fabric.rpc", 0, 90),
            span(2, 0, "client.get", 200, 50),
            span(2, 0, "client.decompress", 200, 40),
        ];
        let agg = aggregate(&attribute(&spans));
        assert_eq!(agg.requests, 2);
        assert_eq!(agg.total_wall_us, 150);
        assert_eq!(agg.bottleneck().0, "network");
        let table = bottleneck_table(&attribute(&spans));
        assert!(table.contains("| network | 90 |"), "{table}");
        assert!(table.contains("| residual | 0 |"), "{table}");
    }

    #[test]
    fn signature_is_timing_free() {
        let a = vec![span(1, 0, "client.get", 0, 100), span(1, 1, "daemon.serve", 10, 50)];
        let b = vec![span(1, 0, "client.get", 7000, 31), span(1, 1, "daemon.serve", 7010, 9)];
        assert_eq!(signature(&a), signature(&b));
        assert!(signature(&a).contains("root=client.get@0"));
    }
}
