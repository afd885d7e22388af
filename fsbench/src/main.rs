//! `fsbench`: the repository's benchmark. One process runs one workload
//! against an in-process 2-rank FanStore cluster and prints, as the last
//! line of standard output, one JSON object with the workload's metrics.
//!
//! ```text
//! fsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         [--steps <n>] [--quick]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` repeats the workload with bench-side spans and the
//! program's trace ring on, runs the layer probes, and prints the
//! per-layer metrics. `--steps` ends the timed phase after a step count
//! in place of a time, so that every count repeats for one seed.
//! `--quick` is the shape of the unit tests: an eighth of the inputs and
//! one set-up; its numbers are never compared. See `README.md`.

mod catalog;
mod layers;
mod spans;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use util::{median, percentile, tail};
use workloads::{run_phase, Limit, Phase, Step, Workload};

/// Set-ups timed in one untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Opts {
    workload: Workload,
    seed: u64,
    limit: Limit,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut steps, mut trace, mut quick) =
        (None, None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?);
            }
            "--steps" => {
                steps = Some(value.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let limit = match (steps, seconds) {
        (Some(n), _) => Limit::Steps(n),
        (None, Some(s)) => Limit::Seconds(s),
        (None, None) => return Err("one of --seconds and --steps is required".to_string()),
    };
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        limit,
        trace: trace.ok_or("--trace is required")?,
        quick,
    })
}

/// What one run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    units: &'static [(&'static str, &'static str)],
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all the digits it was measured with.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .units
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Windows a timed phase is cut into: every timing metric is the median
/// over them.
const WINDOWS: usize = 5;

/// The percentile of step time the end-to-end tail metric reports.
///
/// Not p99: a step of 60 to 200 us that the host interrupts takes twice as
/// long, and on a shared host that happens to more than one step in a
/// hundred and fewer than one in ten. The p99 of such steps was the host's
/// (the same binary gave 96 us in a quiet hour and 110 to 160 us in a busy
/// one); the p90 stayed within a few per cent of itself. The p99 is still
/// reported, without a bound, as the per-layer `bench.step.p99_us`.
const TAIL: f64 = 0.90;

/// What one window of a timed phase measured.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    ops_per_s: f64,
    mb_per_s: f64,
    p50_us: f64,
    /// The tail percentile reported (see [`tail`]) and its value.
    tail_p: f64,
    tail_us: f64,
}

/// Cut a phase into `n` windows. A window ends with the first step past
/// its share of the wall time at which a window may end, so it holds whole
/// steps (whole compaction cycles on `durable_writes`) and has its own
/// length.
///
/// Other tenants of the host slow this machine down by a quarter for
/// seconds at a time. They only ever subtract, and seldom for most of a
/// run, so the median window is the undisturbed machine far more often
/// than the run as a whole is.
fn windows(steps: &[Step], n: usize) -> Vec<Window> {
    let total = steps.last().map_or(0.0, |s| s.end_s);
    let mut out = Vec::with_capacity(n);
    let (mut from, mut t0, mut ops0, mut bytes0, mut k) = (0, 0.0, 0, 0, 1);
    for (i, s) in steps.iter().enumerate() {
        let last = i + 1 == steps.len();
        if last || (s.cut && s.end_s >= total * k as f64 / n as f64) {
            let dt = s.end_s - t0;
            let mut us: Vec<f64> = steps[from..=i].iter().map(|s| s.us).collect();
            us.sort_unstable_by(f64::total_cmp);
            let (tail_p, tail_us) = tail(&us, TAIL);
            out.push(Window {
                ops_per_s: (s.ops - ops0) as f64 / dt,
                mb_per_s: (s.bytes - bytes0) as f64 / 1e6 / dt,
                p50_us: percentile(&us, 0.5),
                tail_p,
                tail_us,
            });
            (from, t0, ops0, bytes0) = (i + 1, s.end_s, s.ops, s.bytes);
            while s.end_s >= total * k as f64 / n as f64 && k < n {
                k += 1;
            }
        }
    }
    out
}

/// An untraced run: the end-to-end metrics.
fn run_end_to_end(o: &Opts) -> Report {
    // The timed life comes first, in a fresh process, so that its memory
    // is that of one life and not of the set-ups after it.
    let p = run_phase(o.workload, o.seed, o.limit, false, o.quick);
    eprintln!(
        "fsbench: resident set as each fifth of the timed phase went by: {:.1?} MB",
        p.rss_mb
    );
    let reps = if o.quick { 1 } else { SETUP_REPS };
    let mut setups = vec![p.setup.total_s];
    setups
        .extend((1..reps).map(|_| {
            run_phase(o.workload, o.seed, Limit::SetupOnly, false, o.quick).setup.total_s
        }));
    eprintln!(
        "fsbench: set-ups {setups:?} s (datagen {:.3}, prepare {:.3}, enumerate {:.3})",
        p.setup.datagen_s, p.setup.prepare_s, p.setup.enumerate_s
    );
    eprintln!(
        "fsbench: {} ops and {} user bytes in {:.3} s, {:.1} ops/s over the run; {} steps; {} ops checked, {} failed",
        p.ops,
        p.user_bytes,
        p.wall_s,
        p.ops as f64 / p.wall_s,
        p.steps.len(),
        p.attempted,
        p.failed
    );
    let w = windows(&p.steps, WINDOWS);
    for (i, w) in w.iter().enumerate() {
        eprintln!(
            "fsbench: window {i}: {:.1} ops/s, {:.2} MB/s, step p50 {:.1} us, p{:.2} {:.1} us",
            w.ops_per_s,
            w.mb_per_s,
            w.p50_us,
            w.tail_p * 100.0,
            w.tail_us
        );
    }
    let mid = |f: fn(&Window) -> f64| median(&mut w.iter().map(f).collect::<Vec<_>>());
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median(&mut setups));
    metrics.insert("ops_per_s", mid(|w| w.ops_per_s));
    metrics.insert("mb_per_s", mid(|w| w.mb_per_s));
    metrics.insert("step_p50_us", mid(|w| w.p50_us));
    metrics.insert("step_p90_us", mid(|w| w.tail_us));
    metrics.insert("stored_bytes_per_user_byte", p.stored_bytes as f64 / p.stored_for_bytes as f64);
    metrics.insert("rss_mb", median(&mut p.rss_mb.clone()));
    Report { attempted: p.attempted, failed: p.failed, metrics, units: &catalog::END_TO_END }
}

/// A traced run: half the time untraced for the speed tracing is
/// compared with, half traced, then the layer probes.
fn run_traced(o: &Opts) -> Report {
    let half = match o.limit {
        Limit::Seconds(s) => Limit::Seconds(s / 2.0),
        Limit::Steps(n) => Limit::Steps(n.div_ceil(2)),
        Limit::SetupOnly => Limit::SetupOnly,
    };
    let u = run_phase(o.workload, o.seed, half, false, o.quick);
    let t = run_phase(o.workload, o.seed, half, true, o.quick);
    let mut metrics = layers::probes(&t.probe_files, &t.prep);
    layers::from_phases(o.workload, &u, &t, &mut metrics);
    write_spans(o.workload, &t);
    if let Some(spans) = &t.spans {
        eprintln!("fsbench: {} traced: self time by span name", o.workload.name());
        for (name, n) in spans.totals() {
            eprintln!(
                "  {name:<26} {:>9} calls {:>12.1} us total {:>12.1} us self",
                n.count,
                n.total_ns as f64 / 1e3,
                n.self_ns as f64 / 1e3
            );
        }
    }
    Report {
        attempted: u.attempted + t.attempted,
        failed: u.failed + t.failed,
        metrics,
        units: &catalog::PER_LAYER,
    }
}

/// Spans kept in the span file; `recorded` in it says how many there were.
const SPAN_FILE_LIMIT: usize = 50_000;

/// Write the bench-side spans beside the build, where the checkout's
/// ignore rules already cover them.
fn write_spans(w: Workload, t: &Phase) {
    let Some(spans) = &t.spans else { return };
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::Path::new(&dir).join("fsbench");
    let path = dir.join(format!("trace-{}.json", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.to_json(w.name(), SPAN_FILE_LIMIT)));
    match written {
        Ok(()) => eprintln!(
            "fsbench: {} spans, first {SPAN_FILE_LIMIT} in {}",
            spans.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("fsbench: span file {} not written: {e}", path.display()),
    }
}

fn run(o: &Opts) -> Report {
    if o.trace {
        run_traced(o)
    } else {
        run_end_to_end(o)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fsbench: {e}\nusage: fsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--steps <n>] [--quick]",
                Workload::ALL.map(Workload::name).join("|"));
            return ExitCode::from(2);
        }
    };
    if opts.quick {
        eprintln!("fsbench: quick shape: numbers from this run are never compared");
    }
    eprintln!("fsbench: {}: {}", opts.workload.name(), catalog::why(opts.workload));
    let report = run(&opts);
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore::metrics::json::{parse, Value};

    fn quick(workload: Workload, trace: bool, steps: u64) -> Report {
        run(&Opts { workload, seed: 11, limit: Limit::Steps(steps), trace, quick: true })
    }

    /// Every name a run emits is declared in `BENCHMARK.json` with the
    /// same unit, and the other way round.
    fn assert_matches_declaration(report: &Report, section: &str) {
        let line = report.to_json();
        let doc =
            parse(&line).unwrap_or_else(|e| panic!("result line does not parse: {e}: {line}"));
        let keys: Vec<&String> = doc.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{line}");
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0), "{line}");
        assert!(doc.get("attempted").and_then(Value::as_u64).is_some_and(|n| n > 0), "{line}");
        let emitted: BTreeMap<String, String> = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics object")
            .iter()
            .map(|(k, v)| {
                assert!(matches!(v.get("value"), Some(Value::Num(_))), "{k} has no value");
                (k.clone(), v.get("unit").and_then(Value::as_str).expect("unit").to_string())
            })
            .collect();
        let declared: BTreeMap<String, String> = declaration()
            .get(section)
            .and_then(Value::as_arr)
            .expect("declared metrics")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect("metric field").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(emitted, declared, "{section} differs from BENCHMARK.json");
    }

    fn declaration() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn workloads_match_the_declaration() {
        let declared: Vec<(String, String)> = declaration()
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("declared workloads")
            .iter()
            .map(|w| {
                let field =
                    |k| w.get(k).and_then(Value::as_str).expect("workload field").to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), catalog::why(*w).to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn every_workload_reports_the_declared_end_to_end_metrics() {
        for w in Workload::ALL {
            let report = quick(w, false, 40);
            assert!(
                report.metrics.values().all(|v| *v > 0.0),
                "{}: {:?}",
                w.name(),
                report.metrics
            );
            assert_matches_declaration(&report, "end_to_end");
        }
    }

    #[test]
    fn every_workload_reports_the_declared_per_layer_metrics() {
        for w in Workload::ALL {
            assert_matches_declaration(&quick(w, true, 40), "per_layer");
        }
    }

    /// One seed and one step count: every count the program keeps
    /// repeats, whatever the timings were.
    #[test]
    fn same_seed_same_counts() {
        for w in Workload::ALL {
            let counts = || {
                let p = run_phase(w, 5, Limit::Steps(48), false, true);
                let c = p.counts;
                let wal: Vec<u64> = ["wal.sync.count", "wal.flush.count", "wal.compact.runs"]
                    .iter()
                    .map(|k| c.r0.counter(k) + c.r1.counter(k))
                    .collect();
                let cache = (c.cache_hits, c.cache_misses, c.cache_evictions);
                (
                    p.ops,
                    p.user_bytes,
                    p.stored_bytes,
                    p.attempted,
                    c.fabric,
                    cache,
                    c.media_syncs,
                    wal,
                )
            };
            assert_eq!(counts(), counts(), "{}", w.name());
        }
    }

    #[test]
    fn the_median_window_ignores_a_disturbed_stretch() {
        // 100 steps of 10 ms and 32 ops; steps 40..50 take three times as
        // long, as when a neighbour takes the core for a while.
        let mut steps = Vec::new();
        let (mut t, mut ops) = (0.0, 0);
        for i in 0..100 {
            let us = if (40..50).contains(&i) { 30_000.0 } else { 10_000.0 };
            t += us / 1e6;
            ops += 32;
            steps.push(Step { us, end_s: t, ops, bytes: ops * 1000, cut: true });
        }
        let w = windows(&steps, 5);
        assert_eq!(w.len(), 5);
        let mid = median(&mut w.iter().map(|w| w.ops_per_s).collect::<Vec<_>>());
        assert!((mid - 3200.0).abs() < 1e-6, "median window {mid} is the undisturbed rate");
        assert!(ops as f64 / t < 2700.0, "the mean over the run is not");
        assert!(w.iter().all(|w| (w.mb_per_s / w.ops_per_s - 1e-3).abs() < 1e-12));
        assert_eq!(median(&mut w.iter().map(|w| w.tail_us).collect::<Vec<_>>()), 10_000.0);
        assert!(windows(&[], 5).is_empty());
        assert_eq!(windows(&steps[..1], 5).len(), 1);
    }

    #[test]
    fn windows_end_only_where_a_cycle_ends() {
        // A cycle of ten steps, the last of which is the long one.
        let mut steps = Vec::new();
        let (mut t, mut ops) = (0.0, 0);
        for i in 0..100 {
            let cut = i % 10 == 9;
            let us = if cut { 50_000.0 } else { 1_000.0 };
            t += us / 1e6;
            ops += 1;
            steps.push(Step { us, end_s: t, ops, bytes: ops, cut });
        }
        let w = windows(&steps, 5);
        assert_eq!(w.len(), 5);
        let rate = 10.0 / 0.059;
        assert!(w.iter().all(|w| (w.ops_per_s - rate).abs() < 1e-6), "whole cycles only: {w:?}");
    }

    #[test]
    fn a_wrong_byte_fails_the_run() {
        let report = Report {
            attempted: 10,
            failed: 1,
            metrics: BTreeMap::new(),
            units: &catalog::END_TO_END,
        };
        assert!(!report.correct());
        assert!(report
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload cold_epoch --seed 3 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.limit, o.trace),
            (Workload::ColdEpoch, 3, Limit::Seconds(10.0), false)
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload cold_epoch --seed 3 --trace 0")).is_err());
        assert!(parse_args(&args("--workload cold_epoch --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload cold_epoch --seed 3 --seconds 0 --trace 0")).is_err());
    }
}
