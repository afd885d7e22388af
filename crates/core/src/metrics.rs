//! First-class observability: counters, gauges and lock-free log-linear
//! latency histograms behind a [`MetricsRegistry`] with stable
//! hierarchical names (`client.get.latency_us`, `fabric.rpc.retries`,
//! `codec.<name>.decode_us`, …), plus export surfaces — a JSON snapshot
//! and mergeable [`Snapshot`]s whose per-epoch deltas feed `EpochReport`
//! and the bench reports.
//!
//! Overhead discipline: recording is atomics-only on the hot path (no
//! locks, no allocation). The registry is always on — every count the
//! store reports about itself (`NodeStats`, `wal.*`, the §II-B call mix)
//! lives here, so there is no switch that could zero them. Instrument
//! handles are `Arc`s resolved once at setup time; the
//! name-keyed maps are only locked at registration and export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

pub mod json;

/// Microseconds since the process-wide monotonic base. All span
/// timestamps and latency measurements share this clock, so spans
/// recorded on different ranks (threads) of one simulated cluster are
/// directly comparable.
pub fn now_us() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (last write wins).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge { value: AtomicU64::new(0) }
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution bits of the log-linear histogram: each
/// power-of-two major bucket is split into `2^SUB_BITS` linear
/// sub-buckets, bounding the relative error of any recorded value by
/// `1 / 2^(SUB_BITS - 1)` — 1.6% here, about two significant digits.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bound on the tail-exemplar reservoir each histogram keeps: the
/// [`EXEMPLAR_CAP`] largest `(value, request)` pairs ever recorded.
pub const EXEMPLAR_CAP: usize = 8;

/// One tail exemplar: a recorded value tagged with the request id that
/// produced it, so a p99 outlier in a latency histogram links directly
/// to its cross-rank span tree in the trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Exemplar {
    /// The recorded value (latency in µs for `*_us` histograms).
    pub value: u64,
    /// Request id of the operation that recorded it (see
    /// [`crate::trace::SpanEvent::request`]).
    pub request: u64,
}

/// A lock-free log-linear (HDR-style) histogram of `u64` values.
///
/// Values below `2^SUB_BITS` are recorded exactly; larger values keep
/// their top [`SUB_BITS`] mantissa bits, so every bucket's width is at
/// most ~1.6% of its lower bound. Recording is a handful of relaxed
/// atomic operations; histograms with the same geometry (always true
/// here) can be [`merge`](Histogram::merge)d.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// The [`EXEMPLAR_CAP`] largest `(value, request)` pairs recorded via
    /// [`Histogram::record_with_exemplar`], sorted ascending. A bounded
    /// deterministic reservoir: the retained set depends only on the
    /// multiset of recorded pairs, never on thread interleaving.
    exemplars: Mutex<Vec<Exemplar>>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    /// Bucket index of `v`.
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let exp = msb - (SUB_BITS - 1);
        let mantissa = (v >> exp) as usize; // in [SUB/2, SUB)
        (exp as usize) * SUB + mantissa
    }

    /// Inclusive `[low, high]` value range of bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        let exp = (i / SUB) as u32;
        let mantissa = (i % SUB) as u64;
        if exp == 0 {
            (mantissa, mantissa)
        } else {
            let low = mantissa << exp;
            // `(1 << exp) - 1` before the add: the top bucket's high end
            // is exactly `u64::MAX`, so adding the width first overflows.
            (low, low + ((1u64 << exp) - 1))
        }
    }

    /// The inclusive bucket bounds `v` would land in (for tests and
    /// renderers).
    pub fn bounds_of(v: u64) -> (u64, u64) {
        Self::bucket_range(Self::index(v))
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// [`Histogram::record`] plus tail-exemplar sampling: when the pair
    /// `(v, request)` ranks among the [`EXEMPLAR_CAP`] largest recorded
    /// so far it enters the exemplar reservoir, so the histogram's tail
    /// (p99 and beyond, once enough values landed) carries request ids
    /// that resolve to span trees. `request == 0` (untraced) records the
    /// value only.
    pub fn record_with_exemplar(&self, v: u64, request: u64) {
        self.record(v);
        if request == 0 {
            return;
        }
        let candidate = Exemplar { value: v, request };
        let mut ex = self.exemplars.lock();
        if ex.len() < EXEMPLAR_CAP {
            let pos = ex.partition_point(|e| *e < candidate);
            ex.insert(pos, candidate);
        } else if ex[0] < candidate {
            ex.remove(0);
            let pos = ex.partition_point(|e| *e < candidate);
            ex.insert(pos, candidate);
        }
    }

    /// The retained tail exemplars, largest value first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let mut ex = self.exemplars.lock().clone();
        ex.reverse();
        ex
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the buckets: the
    /// midpoint of the bucket holding the target rank, clamped to the
    /// observed `[min, max]`. Estimates are monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max(); // exact, not a bucket midpoint
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let (low, high) = Self::bucket_range(i);
                let mid = low + (high - low) / 2;
                return mid.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Fold `other`'s recordings into `self` (bucket-wise addition):
    /// equivalent to having recorded the union of both value streams,
    /// within the bucket precision.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        if other.count() > 0 {
            self.count.fetch_add(other.count(), Ordering::Relaxed);
            self.sum.fetch_add(other.sum(), Ordering::Relaxed);
            self.min.fetch_min(other.min(), Ordering::Relaxed);
            self.max.fetch_max(other.max(), Ordering::Relaxed);
        }
        // Exemplar union, keeping the CAP largest pairs overall — the
        // same set a single histogram would have retained.
        let theirs = other.exemplars.lock().clone();
        if !theirs.is_empty() {
            let mut mine = self.exemplars.lock();
            mine.extend(theirs);
            mine.sort_unstable();
            if mine.len() > EXEMPLAR_CAP {
                let drop = mine.len() - EXEMPLAR_CAP;
                mine.drain(..drop);
            }
        }
    }

    /// Point-in-time summary (count, sum, min/max, p50/p90/p99).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Summary statistics of one histogram at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Name-keyed home of every instrument. Names are hierarchical,
/// dot-separated, lowercase: `<layer>.<operation>.<unit>` — e.g.
/// `client.get.latency_us`, `daemon.served.requests`,
/// `fabric.rpc.retries`, `codec.lz4hc-9.decode_us` (see DESIGN.md §9).
///
/// `counter`/`gauge`/`histogram` are get-or-create and return shared
/// handles; resolve them once and record through the handle.
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Counter::new())))
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Gauge::new())))
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new())))
    }

    /// Fold every instrument of `other` into `self` (creating missing
    /// ones): counters add, gauges add (they are bytes/message totals
    /// here), histograms merge. Used to aggregate per-rank registries
    /// into one cluster-wide view.
    pub fn merge(&self, other: &MetricsRegistry) {
        for (name, c) in other.counters.lock().iter() {
            self.counter(name).add(c.get());
        }
        for (name, g) in other.gauges.lock().iter() {
            let mine = self.gauge(name);
            mine.set(mine.get() + g.get());
        }
        for (name, h) in other.histograms.lock().iter() {
            self.histogram(name).merge(h);
        }
    }

    /// Point-in-time snapshot of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        // One pass over the histogram map under a single lock: the guard
        // from a struct-literal field initializer lives to the end of the
        // whole expression, so locking the map once per field would
        // deadlock against itself.
        let hists = self.histograms.lock();
        let histograms = hists.iter().map(|(k, v)| (k.clone(), v.summary())).collect();
        let exemplars = hists
            .iter()
            .filter_map(|(k, v)| {
                let ex = v.exemplars();
                (!ex.is_empty()).then(|| (k.clone(), ex))
            })
            .collect();
        drop(hists);
        Snapshot {
            counters: self.counters.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms,
            exemplars,
        }
    }

    /// JSON export of the current state (see [`Snapshot::to_json`]).
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// A point-in-time copy of a registry's instruments, comparable and
/// subtractable — the unit that `EpochReport` carries per epoch run and
/// the bench reports render.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Tail exemplars by histogram name (largest value first; only
    /// histograms with at least one exemplar appear).
    pub exemplars: BTreeMap<String, Vec<Exemplar>>,
}

impl Snapshot {
    /// The change since `before`: counters and histogram count/sum are
    /// subtracted (instruments absent from `before` keep their value).
    /// Gauges are point-in-time values, *not* rates — a delta between
    /// two gauge observations is meaningless (e.g. `cache.resident_bytes`
    /// shrinking across an epoch is not "negative work") — so the delta
    /// reports every gauge as last-observed: the value at `self`'s
    /// capture time, untouched. Histogram quantiles/min/max and
    /// exemplars likewise stay point-in-time.
    pub fn delta(&self, before: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                (k.clone(), v.saturating_sub(before.counters.get(k).copied().unwrap_or(0)))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let b = before.histograms.get(k).copied().unwrap_or_default();
                let mut d = *h;
                d.count = h.count.saturating_sub(b.count);
                d.sum = h.sum.saturating_sub(b.sum);
                (k.clone(), d)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            exemplars: self.exemplars.clone(),
        }
    }

    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serialise as a JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {"name":
    /// {"count": .., "sum": .., "min": .., "max": .., "p50": .., "p90":
    /// .., "p99": ..}, ..}, "exemplars": {"name": [{"value": ..,
    /// "request": "<hex>"}, ..], ..}}`. Exemplar request ids are hex
    /// strings in the same format `fanstore report` prints beside each
    /// slowest request, so an outlier joins straight to its span timeline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_map(&mut out, &self.counters, |out, v| out.push_str(&v.to_string()));
        out.push_str("},\"gauges\":{");
        push_map(&mut out, &self.gauges, |out, v| out.push_str(&v.to_string()));
        out.push_str("},\"histograms\":{");
        push_map(&mut out, &self.histograms, |out, h| {
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
            ));
        });
        out.push_str("},\"exemplars\":{");
        push_map(&mut out, &self.exemplars, |out, list| {
            out.push('[');
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"value\":{},\"request\":\"{:x}\"}}", e.value, e.request));
            }
            out.push(']');
        });
        out.push_str("}}");
        out
    }
}

/// Append `"key":<value>` pairs of a map, JSON-escaping the keys.
fn push_map<V>(out: &mut String, map: &BTreeMap<String, V>, mut fmt: impl FnMut(&mut String, &V)) {
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json::escape(k));
        out.push_str("\":");
        fmt(out, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("client.local.opens");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same instrument.
        assert_eq!(reg.counter("client.local.opens").get(), 5);
        let g = reg.gauge("fabric.bytes_sent");
        g.set(42);
        g.set(17);
        assert_eq!(g.get(), 17);
    }

    #[test]
    fn histogram_buckets_bracket_values() {
        for v in [0u64, 1, 7, 127, 128, 129, 1000, 65_535, 1 << 33, u64::MAX / 3] {
            let (low, high) = Histogram::bounds_of(v);
            assert!(low <= v && v <= high, "{v}: [{low}, {high}]");
            // Precision guarantee: bucket width <= ~1.6% of its floor.
            if low >= SUB as u64 {
                assert!((high - low) as f64 <= low as f64 / 63.0, "{v}: [{low}, {high}]");
            }
        }
    }

    #[test]
    fn histogram_quantiles_and_exact_stats() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((490..=510).contains(&p50), "p50 {p50}");
        assert!((975..=1000).contains(&p99), "p99 {p99}");
        assert!(h.quantile(0.0) <= p50 && p50 <= p99 && p99 <= h.quantile(1.0));
    }

    #[test]
    fn histogram_merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let union = Histogram::new();
        for v in [3u64, 99, 4096, 70_000] {
            a.record(v);
            union.record(v);
        }
        for v in [1u64, 250, 8_000_000] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), union.summary());
    }

    #[test]
    fn snapshot_delta_subtracts_counters() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(5);
        reg.histogram("h").record(10);
        let before = reg.snapshot();
        reg.counter("a").add(3);
        reg.counter("b").inc();
        reg.histogram("h").record(20);
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.counter("a"), 3);
        assert_eq!(delta.counter("b"), 1);
        assert_eq!(delta.histograms["h"].count, 1);
        assert_eq!(delta.histograms["h"].sum, 20);
    }

    #[test]
    fn registry_merge_aggregates() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("ops").add(2);
        b.counter("ops").add(3);
        b.counter("only_b").inc();
        a.histogram("lat").record(10);
        b.histogram("lat").record(1000);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("ops"), 5);
        assert_eq!(snap.counter("only_b"), 1);
        assert_eq!(snap.histograms["lat"].count, 2);
        assert_eq!(snap.histograms["lat"].max, 1000);
    }

    #[test]
    fn json_export_parses_and_contains_names() {
        let reg = MetricsRegistry::new();
        reg.counter("client.degraded.reads").add(7);
        reg.histogram("client.get.latency_us").record(120);
        let parsed = json::parse(&reg.to_json()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("client.degraded.reads"))
                .and_then(|v| v.as_u64()),
            Some(7)
        );
        let h = parsed.get("histograms").and_then(|h| h.get("client.get.latency_us")).unwrap();
        assert_eq!(h.get("count").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn exemplar_reservoir_keeps_largest_deterministically() {
        let h = Histogram::new();
        for i in 1..=100u64 {
            h.record_with_exemplar(i, 0x1000 + i);
        }
        let ex = h.exemplars();
        assert_eq!(ex.len(), EXEMPLAR_CAP);
        // Largest-first, and exactly the top CAP values with their ids.
        for (i, e) in ex.iter().enumerate() {
            assert_eq!(e.value, 100 - i as u64);
            assert_eq!(e.request, 0x1000 + e.value);
        }
        // request 0 (untraced) never enters the reservoir.
        h.record_with_exemplar(10_000, 0);
        assert_eq!(h.exemplars().len(), EXEMPLAR_CAP);
        assert_eq!(h.exemplars()[0].value, 100);
    }

    #[test]
    fn exemplar_merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let union = Histogram::new();
        for v in [5u64, 900, 30] {
            a.record_with_exemplar(v, v * 2);
            union.record_with_exemplar(v, v * 2);
        }
        for v in [1000u64, 7, 450, 31, 32, 33, 34, 35, 36] {
            b.record_with_exemplar(v, v * 2);
            union.record_with_exemplar(v, v * 2);
        }
        a.merge(&b);
        assert_eq!(a.exemplars(), union.exemplars());
        assert_eq!(a.exemplars()[0], Exemplar { value: 1000, request: 2000 });
    }

    #[test]
    fn snapshot_delta_reports_gauges_last_observed() {
        // Gauges are point-in-time: the per-epoch delta must carry the
        // value at snapshot time, not a misleading difference.
        let reg = MetricsRegistry::new();
        reg.gauge("cache.resident_bytes").set(1000);
        let before = reg.snapshot();
        reg.gauge("cache.resident_bytes").set(400); // cache shrank
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.gauges["cache.resident_bytes"], 400, "last-observed, not 1000-400");
    }

    #[test]
    fn exemplars_survive_snapshot_and_json() {
        let reg = MetricsRegistry::new();
        reg.histogram("client.get.latency_us").record_with_exemplar(777, 0xABC);
        let snap = reg.snapshot();
        assert_eq!(
            snap.exemplars["client.get.latency_us"],
            vec![Exemplar { value: 777, request: 0xABC }]
        );
        let parsed = json::parse(&snap.to_json()).unwrap();
        let ex = parsed.get("exemplars").and_then(|e| e.get("client.get.latency_us")).unwrap();
        let first = ex.as_arr().expect("exemplar array").first().expect("one exemplar");
        assert_eq!(first.get("value").and_then(|v| v.as_u64()), Some(777));
        assert_eq!(first.get("request").and_then(|v| v.as_str()), Some("abc"));
    }

    #[test]
    fn now_us_is_monotone() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
