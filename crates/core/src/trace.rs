//! I/O tracing: record the call stream a training program issues against
//! the POSIX surface (§II-B's access-pattern characterisation, as a
//! built-in observability feature).
//!
//! A [`TraceRecorder`] collects per-operation events cheaply (atomics +
//! a mutex-guarded overwrite-oldest ring); [`TraceSummary`] aggregates
//! them into the paper's workload metrics: metadata-call counts (the
//! §II-B1 "metadata storm"), read counts/bytes, and the read/metadata
//! mix. Alongside the event stream it keeps a ring of [`SpanEvent`]s —
//! request-scoped timing records minted per client op and carried
//! through the fabric into the daemon, so one GET can be reassembled
//! into a client→fabric→daemon→client timeline. The event stream
//! serialises to a compact text form and parses back
//! ([`TraceRecorder::serialize`] / [`TraceRecorder::parse`]); spans are
//! read in memory ([`TraceRecorder::spans`]).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// The operation kinds of the ten-call surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `open()` for read.
    Open,
    /// `close()`.
    Close,
    /// `read()`.
    Read,
    /// `lseek()`.
    Seek,
    /// `write()`.
    Write,
    /// `stat()`.
    Stat,
    /// `opendir()` / `readdir()` / `closedir()` combined.
    Readdir,
    /// A degraded-mode event: a read needed failover (replica retry or
    /// read-through fallback) or a daemon reply could not be delivered.
    /// Not part of the ten-call surface; surfaces fault recovery in
    /// traces.
    Degraded,
}

impl Op {
    /// Short mnemonic for the text form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Close => "close",
            Op::Read => "read",
            Op::Seek => "seek",
            Op::Write => "write",
            Op::Stat => "stat",
            Op::Readdir => "readdir",
            Op::Degraded => "degraded",
        }
    }

    /// Whether this is a metadata operation (hits the MDS on a shared FS).
    pub fn is_metadata(self) -> bool {
        matches!(self, Op::Stat | Op::Readdir | Op::Open)
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Operation kind.
    pub op: Op,
    /// Path the operation touched (empty for fd-only ops).
    pub path: String,
    /// Bytes moved (reads/writes).
    pub bytes: u64,
}

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

/// Cheap concurrent trace recorder with bounded event and span rings.
pub struct TraceRecorder {
    counts: [AtomicU64; 8],
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    ring: Mutex<Ring<Event>>,
    spans: Mutex<Ring<SpanEvent>>,
    ring_cap: usize,
}

/// Escape a path for the whitespace-delimited text form: percent-encode
/// `%` and ASCII whitespace; an empty path becomes a lone `%` so the
/// field is never missing.
fn escape_path(path: &str) -> String {
    if path.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(path.len());
    for c in path.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_path`].
fn unescape_path(field: &str) -> Result<String, String> {
    if field == "%" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        let code = u8::from_str_radix(&hex, 16).map_err(|_| format!("bad path escape %{hex}"))?;
        out.push(code as char);
    }
    Ok(out)
}

impl TraceRecorder {
    /// Create with event/span rings of `ring_cap` entries each
    /// (0 = counters only).
    pub fn new(ring_cap: usize) -> Self {
        TraceRecorder {
            counts: Default::default(),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            ring: Mutex::new(Ring::new(ring_cap)),
            spans: Mutex::new(Ring::new(ring_cap)),
            ring_cap,
        }
    }

    fn slot(op: Op) -> usize {
        match op {
            Op::Open => 0,
            Op::Close => 1,
            Op::Read => 2,
            Op::Seek => 3,
            Op::Write => 4,
            Op::Stat => 5,
            Op::Readdir => 6,
            Op::Degraded => 7,
        }
    }

    /// Record one operation.
    pub fn record(&self, op: Op, path: &str, bytes: u64) {
        self.counts[Self::slot(op)].fetch_add(1, Ordering::Relaxed);
        match op {
            Op::Read => {
                self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
            }
            Op::Write => {
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
            }
            _ => {}
        }
        if self.ring_cap > 0 {
            self.ring.lock().push(Event { op, path: path.to_string(), bytes });
        }
    }

    /// Record one request-scoped span.
    pub fn record_span(&self, span: SpanEvent) {
        if self.ring_cap > 0 {
            self.spans.lock().push(span);
        }
    }

    /// The recorded spans, oldest-first.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.spans.lock().entries()
    }

    /// The recorded events, oldest-first (latest `ring_cap` of the run).
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().entries()
    }

    /// Count of one operation kind.
    pub fn count(&self, op: Op) -> u64 {
        self.counts[Self::slot(op)].load(Ordering::Relaxed)
    }

    /// Aggregate summary.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            opens: self.count(Op::Open),
            closes: self.count(Op::Close),
            reads: self.count(Op::Read),
            seeks: self.count(Op::Seek),
            writes: self.count(Op::Write),
            stats: self.count(Op::Stat),
            readdirs: self.count(Op::Readdir),
            degraded: self.count(Op::Degraded),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// The retained events (latest `ring_cap`), serialised one event per
    /// line: `op path bytes`, with the path percent-escaped so paths
    /// containing whitespace round-trip.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!("{} {} {}\n", e.op.mnemonic(), escape_path(&e.path), e.bytes));
        }
        out
    }

    /// Parse the event text form ([`TraceRecorder::serialize`]) back
    /// into events.
    pub fn parse(text: &str) -> Result<Vec<Event>, String> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let op = match parts.next() {
                Some("open") => Op::Open,
                Some("close") => Op::Close,
                Some("read") => Op::Read,
                Some("seek") => Op::Seek,
                Some("write") => Op::Write,
                Some("stat") => Op::Stat,
                Some("readdir") => Op::Readdir,
                Some("degraded") => Op::Degraded,
                other => return Err(format!("line {}: bad op {:?}", lineno + 1, other)),
            };
            let path = unescape_path(parts.next().unwrap_or("%"))
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let bytes = parts
                .next()
                .unwrap_or("0")
                .parse()
                .map_err(|e| format!("line {}: bad bytes: {e}", lineno + 1))?;
            events.push(Event { op, path, bytes });
        }
        Ok(events)
    }
}

/// Aggregated workload metrics (the §II-B characterisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// `open()` calls.
    pub opens: u64,
    /// `close()` calls.
    pub closes: u64,
    /// `read()` calls.
    pub reads: u64,
    /// `lseek()` calls.
    pub seeks: u64,
    /// `write()` calls.
    pub writes: u64,
    /// `stat()` calls.
    pub stats: u64,
    /// directory operations.
    pub readdirs: u64,
    /// Degraded-mode events (failover retries, read-through fallbacks,
    /// undeliverable daemon replies).
    pub degraded: u64,
    /// Bytes delivered by reads.
    pub bytes_read: u64,
    /// Bytes accepted by writes.
    pub bytes_written: u64,
}

impl TraceSummary {
    /// Total metadata operations (what a shared file system's MDS would
    /// absorb).
    pub fn metadata_ops(&self) -> u64 {
        self.opens + self.stats + self.readdirs
    }

    /// Metadata-to-data call ratio: the paper's core observation is that
    /// DL startup is metadata-dominated while steady state is
    /// read-dominated.
    pub fn metadata_fraction(&self) -> f64 {
        let total = self.metadata_ops() + self.reads + self.writes;
        if total == 0 {
            return 0.0;
        }
        self.metadata_ops() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = TraceRecorder::new(0);
        t.record(Op::Open, "a", 0);
        t.record(Op::Read, "a", 100);
        t.record(Op::Read, "a", 50);
        t.record(Op::Close, "a", 0);
        t.record(Op::Stat, "b", 0);
        let s = t.summary();
        assert_eq!(s.opens, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_read, 150);
        assert_eq!(s.metadata_ops(), 2);
    }

    #[test]
    fn ring_bounded() {
        let t = TraceRecorder::new(3);
        for i in 0..10 {
            t.record(Op::Read, &format!("f{i}"), 1);
        }
        assert_eq!(t.serialize().lines().count(), 3);
        assert_eq!(t.summary().reads, 10, "counters keep counting past the ring");
    }

    #[test]
    fn ring_keeps_the_tail() {
        // A genuine ring overwrites the oldest entry: after 10 records
        // into a 3-slot ring, the survivors are the LAST three, in order.
        let t = TraceRecorder::new(3);
        for i in 0..10 {
            t.record(Op::Read, &format!("f{i}"), i);
        }
        let paths: Vec<String> = t.events().into_iter().map(|e| e.path).collect();
        assert_eq!(paths, vec!["f7", "f8", "f9"]);
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let t = TraceRecorder::new(16);
        t.record(Op::Open, "d/f.bin", 0);
        t.record(Op::Read, "d/f.bin", 4096);
        t.record(Op::Seek, "d/f.bin", 0);
        t.record(Op::Write, "out.log", 17);
        t.record(Op::Readdir, "d", 0);
        let text = t.serialize();
        let events = TraceRecorder::parse(&text).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[1], Event { op: Op::Read, path: "d/f.bin".into(), bytes: 4096 });
        assert_eq!(events[4].op, Op::Readdir);
    }

    #[test]
    fn paths_with_whitespace_roundtrip() {
        let t = TraceRecorder::new(8);
        t.record(Op::Read, "dir with space/f.bin", 64);
        t.record(Op::Open, "tab\tand %percent", 0);
        t.record(Op::Readdir, "", 0);
        let events = TraceRecorder::parse(&t.serialize()).unwrap();
        assert_eq!(events[0].path, "dir with space/f.bin");
        assert_eq!(events[0].bytes, 64);
        assert_eq!(events[1].path, "tab\tand %percent");
        assert_eq!(events[2].path, "");
    }

    #[test]
    fn spans_roundtrip_and_ring() {
        let t = TraceRecorder::new(2);
        for i in 0..4u64 {
            t.record_span(SpanEvent {
                request: 0xabc0 + i,
                rank: 1,
                stage: "client.get".into(),
                start_us: 10 * i,
                dur_us: 5,
            });
        }
        // Overwrite-oldest: the last two survive.
        let kept = t.spans();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].request, 0xabc2);
    }

    #[test]
    fn degraded_events_counted_and_roundtrip() {
        let t = TraceRecorder::new(4);
        t.record(Op::Read, "f", 10);
        t.record(Op::Degraded, "f", 0);
        t.record(Op::Degraded, "g", 0);
        let s = t.summary();
        assert_eq!(s.degraded, 2);
        assert_eq!(s.reads, 1);
        let events = TraceRecorder::parse(&t.serialize()).unwrap();
        assert_eq!(events[1], Event { op: Op::Degraded, path: "f".into(), bytes: 0 });
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceRecorder::parse("frobnicate x 0").is_err());
        assert!(TraceRecorder::parse("read x notanumber").is_err());
        assert!(TraceRecorder::parse("").unwrap().is_empty());
    }

    #[test]
    fn metadata_fraction_profile() {
        // Enumeration-style trace: metadata-dominated.
        let t = TraceRecorder::new(0);
        for i in 0..100 {
            t.record(Op::Stat, &format!("f{i}"), 0);
        }
        t.record(Op::Readdir, "", 0);
        assert!(t.summary().metadata_fraction() > 0.99);

        // Steady-state trace: read-dominated.
        let t2 = TraceRecorder::new(0);
        for i in 0..100 {
            t2.record(Op::Read, &format!("f{i}"), 1 << 20);
        }
        t2.record(Op::Open, "f0", 0);
        assert!(t2.summary().metadata_fraction() < 0.02);
    }

    #[test]
    fn concurrent_recording() {
        let t = std::sync::Arc::new(TraceRecorder::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.record(Op::Read, "f", 8);
                    }
                });
            }
        });
        assert_eq!(t.summary().reads, 4000);
        assert_eq!(t.summary().bytes_read, 32_000);
    }
}
