//! Bench-side spans: one record around every call the driver makes into
//! the store, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// Spans kept in one traced phase. A phase that reaches the cap ends
/// there, so memory stays bounded on the workloads that make millions of
/// calls a second.
pub const SPAN_CAP: usize = 1 << 20;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`ROOT`] for none.
    pub parent: u32,
    /// The step this span belongs to: the identifier its spans share.
    pub step: u32,
}

pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub step: u32,
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAP),
            stack: Vec::new(),
            step: 0,
        }
    }

    pub fn full(&self) -> bool {
        self.spans.len() >= SPAN_CAP
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, step: self.step });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// The first `limit` spans as a JSON document (the whole set can be
    /// hundreds of megabytes as text; `recorded` says how many there were).
    pub fn to_json(&self, workload: &str, limit: usize) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"recorded\":{},\"spans\":[\n",
            self.spans.len()
        );
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            out.push_str(&format!(
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.step,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Count, total and self time per span name. Self time is a span's
/// duration minus the part of its interval that its children cover;
/// children that overlap each other or stick out of the parent are
/// counted once and clipped.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let a = a.max(reach);
            if a < b {
                covered += b - a;
                reach = b;
            }
        }
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, step: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("step", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  // overlaps a: union is 10..60
            span("c", 90, 120, 0), // sticks out: clipped to 90..100
            span("leaf", 15, 20, 1),
        ];
        let t = totals(&spans);
        assert_eq!(t["step"], NameTotals { count: 1, total_ns: 100, self_ns: 100 - 50 - 10 });
        assert_eq!(t["a"], NameTotals { count: 1, total_ns: 30, self_ns: 25 });
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 30);
        assert_eq!(t["leaf"].self_ns, 5);
    }

    #[test]
    fn enter_and_exit_nest() {
        let mut s = Spans::new();
        let outer = s.enter("step");
        let inner = s.enter("client.open");
        s.exit(inner);
        s.exit(outer);
        assert_eq!(s.spans[0].parent, ROOT);
        assert_eq!(s.spans[1].parent, 0);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
        let doc = fanstore::metrics::json::parse(&s.to_json("w", 10)).expect("span file parses");
        assert_eq!(doc.get("spans").and_then(|v| v.as_arr()).map(<[_]>::len), Some(2));
    }
}
