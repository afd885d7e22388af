//! Pipeline attribution benchmark: the full prefetched training
//! pipeline on a traced cluster under a modelled 200 µs link delay.
//! Every request's span tree is joined across ranks and its wall time
//! decomposed into the named segments from [`fanstore::attrib`]; the
//! training loop reports its stall breakdown alongside. The result is
//! per-stage medians, the consumer stall fraction, and attribution
//! coverage.
//!
//! Everything here is **measured** on this machine except the link
//! delay, which is **modelled** (`FaultPlan::delay_prob`) — without it
//! the in-process fabric is so fast that the network segment vanishes
//! into clock resolution.

use std::time::{Duration, Instant};

use fanstore::attrib::{aggregate, attribute, RequestAttribution, SEGMENTS};
use fanstore::cluster::{ClusterConfig, FanStore};
use fanstore::prep::{prepare, PrepConfig};
use fanstore_datagen::{DatasetKind, DatasetSpec};
use fanstore_train::epoch::{run_epochs, EpochConfig, StallBreakdown};
use fanstore_train::prefetch::PrefetchConfig;
use mpi_sim::FaultPlan;

use crate::report::md_table;

/// What one run of the workload measured.
#[derive(Debug, Clone)]
pub struct PipelineSummary {
    /// Cluster size the workload ran on.
    pub nodes: usize,
    /// Files in the dataset.
    pub files: usize,
    /// Epochs trained.
    pub epochs: usize,
    /// Requests with at least one retained span.
    pub requests: usize,
    /// Fraction of request wall time explained by named segments
    /// (1 − residual share). The CI release gate holds this ≥ 0.90.
    pub coverage: f64,
    /// Fraction of the epoch wall the consumer spent starved for the
    /// next batch (`ready_wait / wall`): the stall the trainer feels.
    pub stall_fraction: f64,
    /// Full pipeline stall breakdown summed across ranks.
    pub stalls: StallBreakdown,
    /// Per segment: requests where it is non-zero, median and total µs
    /// over those requests. `SEGMENTS` order, then `residual` last.
    pub stage_median_us: Vec<StageStat>,
}

/// One row of the per-stage table.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Segment name (`fanstore::attrib::SEGMENTS` entry or `residual`).
    pub stage: &'static str,
    /// Requests where the segment took non-zero time.
    pub requests: usize,
    /// Median µs over those requests (0 when none).
    pub median_us: u64,
    /// Total µs across all requests.
    pub total_us: u64,
}

fn dataset(files: usize) -> Vec<(String, Vec<u8>)> {
    let spec = DatasetSpec::scaled(DatasetKind::LanguageTxt, files, 0xA77B);
    (0..files).map(|i| (format!("train/f{i:03}.txt"), spec.generate(i))).collect()
}

/// Median of the non-zero values of `segment` across requests (0 when
/// the segment never fired), with the firing count and total.
fn stage_stat(
    attrs: &[RequestAttribution],
    stage: &'static str,
    value: impl Fn(&RequestAttribution) -> u64,
) -> StageStat {
    let mut vals: Vec<u64> = attrs.iter().map(&value).filter(|v| *v > 0).collect();
    vals.sort_unstable();
    StageStat {
        stage,
        requests: vals.len(),
        median_us: vals.get(vals.len() / 2).copied().unwrap_or(0),
        total_us: vals.iter().sum(),
    }
}

/// Run the workload once and summarise it. `quick` is the CI smoke
/// shape (small cluster, one epoch); the full shape is the one the
/// release gate and EXPERIMENTS.md measure.
pub fn measure(quick: bool) -> PipelineSummary {
    let (nodes, files, epochs) = if quick { (2, 16, 1) } else { (4, 48, 2) };
    let packed = prepare(dataset(files), &PrepConfig { partitions: nodes, ..Default::default() });
    let cfg = ClusterConfig {
        nodes,
        trace_ring: 1 << 15,
        fault_plan: Some(FaultPlan::new(0xA77B).delay_prob(1.0, Duration::from_micros(200))),
        ..Default::default()
    };
    let ecfg = EpochConfig {
        root: "train".into(),
        batch_per_node: 8,
        epochs,
        checkpoint_every: 0,
        checkpoint_bytes: 0,
        seed: 7,
        prefetch: Some(PrefetchConfig::default()),
    };
    let per_rank = FanStore::run(cfg, packed.partitions, |fs| {
        let t0 = Instant::now();
        let report = run_epochs(fs, &ecfg).expect("epoch workload");
        let wall_us = t0.elapsed().as_micros() as u64;
        // Ring handle, not contents: this rank's daemon may still be
        // serving peers when the closure ends; spans are read after
        // `run` returns, once every daemon has joined.
        (report, wall_us, fs.trace().cloned())
    });

    let mut stalls = StallBreakdown::default();
    let mut wall_us = 0u64;
    let mut spans = Vec::new();
    for (report, rank_wall, trace) in per_rank {
        let s = report.stalls;
        stalls.ready_wait_us += s.ready_wait_us;
        stalls.feed_wait_us += s.feed_wait_us;
        stalls.work_wait_us += s.work_wait_us;
        stalls.emit_wait_us += s.emit_wait_us;
        wall_us += rank_wall;
        spans.extend(trace.map(|t| t.spans()).unwrap_or_default());
    }

    let attrs = attribute(&spans);
    let agg = aggregate(&attrs);
    let mut stage_median_us: Vec<StageStat> = SEGMENTS
        .into_iter()
        .map(|name| stage_stat(&attrs, name, move |a| a.segment(name)))
        .collect();
    stage_median_us.push(stage_stat(&attrs, "residual", |a| a.residual_us));

    PipelineSummary {
        nodes,
        files,
        epochs,
        requests: attrs.len(),
        coverage: agg.coverage(),
        stall_fraction: stalls.ready_wait_us as f64 / wall_us.max(1) as f64,
        stalls,
        stage_median_us,
    }
}

/// Generate the markdown report.
pub fn run(quick: bool) -> String {
    let s = measure(quick);
    let mut out = format!(
        "## Pipeline attribution — where request wall time goes\n\n\
         Prefetched training epochs on a {}-node traced cluster with a modelled\n\
         200 µs link delay: {} files, {} epoch(s), {} traced requests.\n\
         Attribution coverage {:.1}% (residual is the uncovered remainder);\n\
         the consumer was starved for {:.1}% of the epoch wall\n\
         (stalls µs — ready {}, feed {}, work {}, emit {}).\n\n",
        s.nodes,
        s.files,
        s.epochs,
        s.requests,
        s.coverage * 100.0,
        s.stall_fraction * 100.0,
        s.stalls.ready_wait_us,
        s.stalls.feed_wait_us,
        s.stalls.work_wait_us,
        s.stalls.emit_wait_us,
    );
    let total: u64 = s.stage_median_us.iter().map(|r| r.total_us).sum();
    let rows: Vec<Vec<String>> = s
        .stage_median_us
        .iter()
        .map(|r| {
            vec![
                r.stage.to_string(),
                r.requests.to_string(),
                r.median_us.to_string(),
                r.total_us.to_string(),
                format!("{:.1}%", r.total_us as f64 / total.max(1) as f64 * 100.0),
            ]
        })
        .collect();
    out.push_str(&md_table(&["segment", "requests", "median us", "total us", "share"], &rows));
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// `measure` spins up a whole cluster plus prefetch threads; three
    /// of those racing on a small machine starve each other's spans
    /// and inflate the residual. Serialise the module's measurements.
    static MEASURE_LOCK: Mutex<()> = Mutex::new(());

    fn measured(quick: bool) -> PipelineSummary {
        let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        measure(quick)
    }

    /// The CI release gate: named segments must explain ≥ 90% of the
    /// wall on the full shape — the one EXPERIMENTS.md reports and the
    /// README's claim is about. The
    /// quick smoke shape has too few requests for its residual share to
    /// be stable, and residual (scheduling gaps between spans) widens
    /// further on debug builds, so debug runs the smoke shape against a
    /// sanity floor instead.
    #[test]
    fn attribution_coverage_gate() {
        let (s, gate) =
            if cfg!(debug_assertions) { (measured(true), 0.50) } else { (measured(false), 0.90) };
        assert!(s.coverage >= gate, "attribution coverage {:.3} below the {gate} gate", s.coverage);
        assert!(s.requests > 0);
    }

    #[test]
    fn pipeline_records_stalls_and_cross_rank_segments() {
        let s = measured(true);
        // The prefetched pipeline must have measured *some* blocked
        // time somewhere (a perfectly unobstructed pipeline over a
        // delayed link is implausible), and the delayed fabric must
        // show up as network/serve time.
        let net = s.stage_median_us.iter().find(|r| r.stage == "network").unwrap();
        let serve = s.stage_median_us.iter().find(|r| r.stage == "serve").unwrap();
        assert!(net.requests > 0, "no network segment attributed: {s:?}");
        assert!(serve.requests > 0, "no serve segment attributed: {s:?}");
        assert!(s.stalls.total_us() > 0, "no stall time recorded: {s:?}");
    }
}
