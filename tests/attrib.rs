//! Critical-path attribution, end to end: a seeded 4-rank run under a
//! modelled link delay must decompose every request's wall time
//! into named segments plus an explicit residual — exactly (the sweep
//! is arithmetic, not estimation), with no residual in any request
//! whose root span was traced, and with a structural signature that is
//! identical across three same-seed runs. A prefetched training epoch
//! over the same kind of cluster is attributed without residual too.

use std::sync::Arc;
use std::time::Duration;

use fanstore_repro::datagen::{DatasetKind, DatasetSpec};
use fanstore_repro::mpi::FaultPlan;
use fanstore_repro::store::attrib::{
    aggregate, attribute, bottleneck_table, signature, RequestAttribution, SEGMENTS,
};
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::trace::SpanEvent;
use fanstore_repro::train::epoch::{run_epochs, EpochConfig};
use fanstore_repro::train::prefetch::PrefetchConfig;

const NODES: usize = 4;
const FILES: usize = 24;
const SEED: u64 = 0xA77B;

fn dataset() -> Vec<(String, Vec<u8>)> {
    (0..FILES)
        .map(|i| {
            let reps = if i % 2 == 0 { 30 } else { 4000 };
            (format!("train/s{}/f{i:03}.bin", i % 4), format!("rec {i} ").repeat(reps).into_bytes())
        })
        .collect()
}

/// One seeded run: every rank reads the dataset through the batched
/// path (so get_many roots appear) and once through single GETs —
/// exercising queue, rpc, serve and decompress spans. Returns all ranks'
/// spans joined.
fn seeded_run() -> Vec<SpanEvent> {
    let packed = prepare(dataset(), &PrepConfig { partitions: NODES, ..Default::default() });
    let cfg = ClusterConfig {
        nodes: NODES,
        trace_ring: 8192,
        fault_plan: Some(FaultPlan::new(SEED).delay_prob(1.0, Duration::from_micros(200))),
        ..Default::default()
    };
    let per_rank = FanStore::run(cfg, packed.partitions, |fs| {
        let files = fs.enumerate("train").expect("enumerate");
        for chunk in files.chunks(6) {
            for r in fs.read_many(chunk) {
                r.expect("batched read");
            }
        }
        for path in &files {
            fs.read_whole(path).expect("read");
        }
        // Return the ring handle, not its contents: this rank's daemon
        // may still be serving peers' requests when the closure ends, so
        // the spans are read only after `run` returns (daemons joined).
        Arc::clone(fs.trace().expect("trace ring on"))
    });
    per_rank.into_iter().flat_map(|t| t.spans()).collect()
}

/// Whether the request's root client op was traced (not dropped by
/// the ring): the requests whose wall attribution explains in full.
fn root_retained(a: &RequestAttribution) -> bool {
    matches!(
        a.root_stage.as_str(),
        "client.get" | "client.get_many" | "client.put" | "client.range"
    )
}

/// Every request decomposes exactly, and one whose root was traced
/// leaves nothing unexplained: every read finishes inside its root.
fn assert_exact_and_explained(attrs: &[RequestAttribution]) {
    for a in attrs {
        // The decomposition is exact by construction: named segments
        // plus the explicit residual reproduce the measured wall time.
        assert_eq!(
            a.segments.iter().sum::<u64>() + a.residual_us,
            a.wall_us,
            "request {:x} does not decompose exactly: {a:?}",
            a.request
        );
        if root_retained(a) {
            assert_eq!(a.residual_us, 0, "request {:x} left residual: {a:?}", a.request);
        }
    }
}

#[test]
fn segments_sum_to_wall_and_cover_90_percent() {
    let spans = seeded_run();
    let attrs = attribute(&spans);
    assert!(attrs.len() >= FILES, "one attribution per traced request: {}", attrs.len());
    assert_exact_and_explained(&attrs);

    // Acceptance: named segments explain >= 90% of the wall (residual
    // is counted explicitly, not hidden).
    let agg = aggregate(&attrs);
    assert!(
        agg.coverage() >= 0.90,
        "attribution coverage {:.3} below 0.90 (residual {} of {} us)",
        agg.coverage(),
        agg.residual_us,
        agg.total_wall_us
    );

    // The run genuinely exercised the remote path: some request crossed
    // ranks and the serve + network segments took real time.
    assert!(attrs.iter().any(|a| a.ranks >= 2), "no cross-rank request");
    assert!(attrs.iter().any(|a| a.segment("serve") > 0), "no serve time attributed");
    assert!(attrs.iter().any(|a| a.segment("network") > 0), "no network time attributed");
    assert!(attrs.iter().any(|a| a.segment("decode") > 0), "no decode time attributed");

    // The bottleneck table renders every segment (CLI-facing surface).
    let table = bottleneck_table(&attrs);
    for name in SEGMENTS {
        assert!(table.contains(&format!("| {name} |")), "{table}");
    }
    assert!(table.contains("| residual |"), "{table}");
}

#[test]
fn a_prefetched_epoch_is_attributed_without_residual() {
    // The prefetched training pipeline on a traced 2-rank cluster under
    // a modelled 200 µs link delay: each batch decodes its entries inside
    // its root, so nothing of a batch is left unexplained.
    const FILES: usize = 16;
    let spec = DatasetSpec::scaled(DatasetKind::LanguageTxt, FILES, SEED);
    let files = (0..FILES).map(|i| (format!("train/f{i:03}.txt"), spec.generate(i))).collect();
    let packed = prepare(files, &PrepConfig { partitions: 2, ..Default::default() });
    let cfg = ClusterConfig {
        nodes: 2,
        trace_ring: 1 << 15,
        fault_plan: Some(FaultPlan::new(SEED).delay_prob(1.0, Duration::from_micros(200))),
        ..Default::default()
    };
    let ecfg = EpochConfig {
        root: "train".into(),
        batch_per_node: 8,
        epochs: 1,
        checkpoint_every: 0,
        checkpoint_bytes: 0,
        seed: 7,
        prefetch: Some(PrefetchConfig::default()),
    };
    let per_rank = FanStore::run(cfg, packed.partitions, |fs| {
        let report = run_epochs(fs, &ecfg).expect("epoch workload");
        // Ring handle, not contents: spans are read once every daemon
        // has joined.
        (report.stalls.total_us(), Arc::clone(fs.trace().expect("trace ring on")))
    });
    let stall_us: u64 = per_rank.iter().map(|(us, _)| us).sum();
    let spans: Vec<SpanEvent> = per_rank.iter().flat_map(|(_, t)| t.spans()).collect();

    let attrs = attribute(&spans);
    assert!(!attrs.is_empty(), "no traced request");
    assert_exact_and_explained(&attrs);
    let agg = aggregate(&attrs);
    assert_eq!(agg.residual_us, 0, "{}", bottleneck_table(&attrs));
    for name in ["queue", "network", "serve"] {
        let i = SEGMENTS.iter().position(|s| *s == name).unwrap();
        assert!(agg.totals[i] > 0, "no {name} time attributed: {}", bottleneck_table(&attrs));
    }
    assert!(stall_us > 0, "no pipeline stall recorded");
}

#[test]
fn same_seed_runs_attribute_identically() {
    // Raw timings are wall-clock and differ run to run; the *structure*
    // — which requests exist, their root stages, and which (stage, rank)
    // spans each joins — must be identical for the same seed, three
    // times over.
    let first = signature(&seeded_run());
    for round in 1..3 {
        let again = signature(&seeded_run());
        assert_eq!(first, again, "run {round} diverged structurally");
    }
    assert!(!first.is_empty());
    assert!(first.contains("root=client.get"), "{first}");
}
