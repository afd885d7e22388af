//! End-to-end observability: a 4-node run must emit a parseable metrics
//! snapshot with real latency spread, a complete cross-rank GET span,
//! and — under the chaos schedule — the degraded-read counters the
//! recovery machinery promises. The schema test doubles as the CI smoke
//! check for the JSON export.

use std::sync::Arc;
use std::time::Duration;

use fanstore_repro::mpi::FaultPlan;
use fanstore_repro::store::client::FailoverConfig;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::metrics::{json, MetricsRegistry};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::trace::SpanEvent;
use fanstore_repro::train::epoch::{run_epochs, EpochConfig};

const NODES: usize = 4;
const FILES: usize = 24;

/// Bimodal dataset: small files fetch in microseconds, large ones take
/// visibly longer to ship and decompress — so the latency histograms
/// have genuine spread, not one flat bucket.
fn dataset() -> Vec<(String, Vec<u8>)> {
    (0..FILES)
        .map(|i| {
            let reps = if i % 2 == 0 { 20 } else { 8000 };
            (
                format!("train/shard{}/sample{i:03}.bin", i % 4),
                format!("sample {i} payload ").repeat(reps).into_bytes(),
            )
        })
        .collect()
}

/// Run the read-twice workload (cold fetches, then warm cache hits) and
/// return each rank's registry and recorded spans.
fn observed_run() -> Vec<(Arc<MetricsRegistry>, Vec<SpanEvent>)> {
    let packed = prepare(dataset(), &PrepConfig { partitions: NODES, ..Default::default() });
    let cfg = ClusterConfig { nodes: NODES, trace_ring: 8192, ..Default::default() };
    FanStore::run(cfg, packed.partitions, |fs| {
        let files = fs.enumerate("train").expect("enumerate");
        for _pass in 0..2 {
            for path in &files {
                fs.read_whole(path).expect("read");
            }
        }
        // Ring handle, not contents: this rank's daemon may still be
        // serving peers' requests when the closure ends, so spans are
        // read only after `run` returns (daemons joined).
        (Arc::clone(&fs.state().metrics), Arc::clone(fs.trace().expect("trace ring on")))
    })
    .into_iter()
    .map(|(m, t)| (m, t.spans()))
    .collect()
}

#[test]
fn four_node_run_emits_histograms_and_complete_get_span() {
    let per_rank = observed_run();

    // Merge every rank into one cluster view, as `fanstore report` does.
    let merged = MetricsRegistry::new();
    for (registry, _) in &per_rank {
        merged.merge(registry);
    }
    let snap = merged.snapshot();

    // The JSON export round-trips through our own parser.
    let parsed = json::parse(&merged.to_json()).expect("snapshot JSON parses");
    assert!(parsed.get("counters").is_some() && parsed.get("histograms").is_some());

    // Per-op histograms exist with real spread: cache hits vs remote
    // fetches of 100 KB-class files must not land in one bucket.
    let get = snap.histograms.get("client.get.latency_us").expect("GET histogram");
    assert_eq!(get.count as usize, NODES * FILES * 2, "every rank reads every file twice");
    assert!(get.p50 < get.p99, "bimodal workload must spread the quantiles: {get:?}");
    assert!(get.p99 <= get.max && get.min <= get.p50, "summary ordered: {get:?}");
    let rpc = snap.histograms.get("fabric.rpc.latency_us").expect("RPC histogram");
    assert!(rpc.count > 0, "remote fetches went over the fabric");

    // At least one GET must trace client -> fabric -> daemon *across
    // ranks*: the daemon.serve stage lands on the serving rank's
    // recorder, so completeness is only visible after joining all ranks'
    // spans by request id.
    let all_spans: Vec<&SpanEvent> = per_rank.iter().flat_map(|(_, s)| s).collect();
    let complete = all_spans
        .iter()
        .filter(|s| s.stage == "client.get")
        .filter_map(|get_span| {
            let same = |stage: &str| {
                all_spans.iter().find(|s| s.request == get_span.request && s.stage == stage)
            };
            Some((get_span, same("fabric.rpc")?, same("daemon.serve")?))
        })
        .find(|(get_span, rpc_span, serve)| {
            serve.rank != get_span.rank // genuinely remote
                && rpc_span.rank == get_span.rank
                && rpc_span.start_us >= get_span.start_us
                && rpc_span.start_us + rpc_span.dur_us <= get_span.start_us + get_span.dur_us
        });
    assert!(
        complete.is_some(),
        "no GET with client.get + fabric.rpc + cross-rank daemon.serve among {} spans",
        all_spans.len()
    );
}

#[test]
fn tail_exemplar_resolves_to_complete_span_tree() {
    // A p99 outlier must be actionable: the GET latency histogram's
    // tail exemplars carry their request id, and joining every rank's
    // spans on that id must reassemble the whole cross-rank request —
    // root GET, the rpc leg, the remote daemon's serve leg, and the
    // decompress leg — so "what was slow" links straight to "where the
    // time went".
    let per_rank = observed_run();
    let merged = MetricsRegistry::new();
    for (registry, _) in &per_rank {
        merged.merge(registry);
    }
    let snap = merged.snapshot();
    let get = snap.histograms.get("client.get.latency_us").expect("GET histogram");
    let exemplars = snap.exemplars.get("client.get.latency_us").expect("GET exemplars");
    assert!(!exemplars.is_empty());
    assert_eq!(
        exemplars[0].value, get.max,
        "the top exemplar is the recorded maximum, i.e. the worst GET"
    );
    assert!(exemplars[0].value >= get.p50, "exemplars sample the tail, not the body");

    let all_spans: Vec<&SpanEvent> = per_rank.iter().flat_map(|(_, s)| s).collect();
    let complete = exemplars.iter().find(|ex| {
        let of =
            |stage: &str| all_spans.iter().find(|s| s.request == ex.request && s.stage == stage);
        match (of("client.get"), of("fabric.rpc"), of("daemon.serve"), of("client.decompress")) {
            (Some(root), Some(rpc), Some(serve), Some(dec)) => {
                serve.rank != root.rank // genuinely crossed ranks
                    && rpc.rank == root.rank
                    && dec.rank == root.rank
                    && rpc.start_us >= root.start_us
                    && rpc.start_us + rpc.dur_us <= root.start_us + root.dur_us
            }
            _ => false,
        }
    });
    assert!(
        complete.is_some(),
        "no exemplar joined to a complete cross-rank tree; exemplars={exemplars:?}"
    );
}

#[test]
fn chaos_metrics_snapshot_schema() {
    // The chaos schedule from tests/chaos.rs, but the assertion target is
    // the metrics export: the snapshot must parse as JSON and carry the
    // degraded-read keys the dashboards key on. CI runs exactly this test
    // as the schema smoke check.
    let packed = prepare(dataset(), &PrepConfig { partitions: 8, ..Default::default() });
    let cfg = ClusterConfig {
        nodes: NODES,
        replication: 2,
        read_through: true,
        fault_plan: Some(FaultPlan::new(0x0B5E_C4A0).kill(0, 3).corrupt_prob(0.01)),
        failover: FailoverConfig {
            rpc_timeout: Duration::from_millis(500),
            attempts_per_replica: 2,
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(2),
            seed: 0x0B5E_C4A0,
            ..Default::default()
        },
        ..Default::default()
    };
    let epoch_cfg = EpochConfig {
        root: "train".into(),
        batch_per_node: 4,
        epochs: 2,
        checkpoint_every: 0,
        checkpoint_bytes: 0,
        seed: 3,
        prefetch: None,
    };
    let jsons = FanStore::run(cfg, packed.partitions, |fs| {
        run_epochs(fs, &epoch_cfg).expect("training survives the faults");
        fs.state().metrics.to_json()
    });

    let mut degraded_total = 0;
    for (rank, text) in jsons.iter().enumerate() {
        let v = json::parse(text).unwrap_or_else(|e| panic!("rank {rank} JSON: {e}\n{text}"));
        let counters = v.get("counters").and_then(|c| c.as_obj()).expect("counters object");
        for key in [
            "client.degraded.reads",
            "client.read_through.reads",
            "fabric.rpc.timeouts",
            "client.retry.exhausted",
        ] {
            assert!(counters.contains_key(key), "rank {rank} missing {key}: {text}");
        }
        degraded_total += v
            .get("counters")
            .and_then(|c| c.get("client.degraded.reads"))
            .and_then(json::Value::as_u64)
            .unwrap_or(0);
    }
    assert!(degraded_total > 0, "the fault plan must bite: {jsons:?}");
}
