//! Checkpoint write/restore cost and the delta-vs-full storage ratio.
//!
//! Everything here is **measured**: a multi-generation checkpoint chain
//! of an evolving synthetic model is written through `fanstore::ckpt` on
//! an in-process cluster twice — once with delta encoding on (the
//! default) and once forced full — and then recovered cold. The paper's
//! fault-tolerance argument (§V-E) prices resilience as "checkpoint per
//! epoch and replay"; this experiment prices the checkpoints themselves:
//! bytes stored per generation, write latency, and restore latency.

use std::time::Instant;

use fanstore::ckpt::{CheckpointStore, CkptConfig, Recovery};
use fanstore::cluster::{ClusterConfig, FanStore};
use fanstore::prep::{prepare, PrepConfig};
use fanstore_datagen::{DatasetKind, DatasetSpec};

use crate::report::{fmt_f, fmt_time, md_table};

const NODES: usize = 2;

/// Synthetic model state: stable bytes with sparse per-generation drift
/// (the shape adjacent weight checkpoints show), sized in KiB.
pub(crate) fn model_state(rank: usize, generation: u64, kib: usize) -> Vec<u8> {
    (0..kib * 1024)
        .map(|i| {
            let stable = ((i * 131) ^ (rank * 7)) as u8;
            if i.is_multiple_of(61) {
                stable.wrapping_add(generation as u8)
            } else {
                stable
            }
        })
        .collect()
}

/// One measured configuration of the chain workload.
struct ChainCost {
    stored_bytes: u64,
    raw_bytes: u64,
    put_s: f64,
    recover_s: f64,
}

/// Write `generations` checkpoints of a `kib`-KiB model on every rank,
/// then cold-recover the newest; returns rank-0 totals.
fn run_chain(generations: u64, kib: usize, delta: bool) -> ChainCost {
    let spec = DatasetSpec::scaled(DatasetKind::LanguageTxt, 4, 0xCC07);
    let files: Vec<(String, Vec<u8>)> =
        (0..4).map(|i| (format!("d/f{i}.txt"), spec.generate(i))).collect();
    let packed = prepare(files, &PrepConfig { partitions: NODES, ..Default::default() });
    let cfg = move || CkptConfig {
        tag: "bench".to_string(),
        delta,
        // Never force a full generation mid-chain: the comparison wants
        // pure delta vs pure full.
        full_every: 0,
        replicas: 1,
        ..CkptConfig::default()
    };
    let results = FanStore::run(
        ClusterConfig { nodes: NODES, ..Default::default() },
        packed.partitions,
        move |fs| {
            let store = CheckpointStore::new(fs, cfg());
            let mut stored = 0u64;
            let mut raw = 0u64;
            let t0 = Instant::now();
            for g in 1..=generations {
                let r = store.put(g, &model_state(fs.rank(), g, kib)).expect("put");
                stored += r.stored_bytes;
                raw += r.raw_bytes;
            }
            let put_s = t0.elapsed().as_secs_f64();
            let cold = CheckpointStore::new(fs, cfg());
            let t1 = Instant::now();
            match cold.recover().expect("recover") {
                Recovery::Loaded { generation, payload, .. } => {
                    assert_eq!(generation, generations);
                    assert_eq!(payload, model_state(fs.rank(), generations, kib));
                }
                Recovery::Fresh => panic!("chain was written"),
            }
            let recover_s = t1.elapsed().as_secs_f64();
            ChainCost { stored_bytes: stored, raw_bytes: raw, put_s, recover_s }
        },
    );
    results.into_iter().next().expect("rank 0 result")
}

/// Generate the checkpoint-cost report.
pub fn run(generations: u64, kib: usize) -> String {
    let delta = run_chain(generations, kib, true);
    let full = run_chain(generations, kib, false);
    let ratio = |c: &ChainCost| c.raw_bytes as f64 / c.stored_bytes.max(1) as f64;
    let savings = 100.0 * (1.0 - delta.stored_bytes as f64 / full.stored_bytes.max(1) as f64);

    let mut out = format!(
        "## Checkpoint cost — durable store write/restore and delta-vs-full ratio\n\n\
         A {generations}-generation checkpoint chain of a {kib} KiB evolving model per\n\
         rank on a {NODES}-node cluster (replicated to 1 ring peer), written through the\n\
         `fanstore::ckpt` store and then cold-recovered (full chain CRC-verify +\n\
         reconstruction). Delta encoding stores each chunk as the byte-difference\n\
         against the previous generation whenever that compresses smaller.\n\n",
    );
    out.push_str(&md_table(
        &["mode", "stored bytes", "effective ratio", "write wall", "restore wall"],
        &[
            vec![
                "delta chain".into(),
                delta.stored_bytes.to_string(),
                fmt_f(ratio(&delta)),
                fmt_time(delta.put_s),
                fmt_time(delta.recover_s),
            ],
            vec![
                "full every gen".into(),
                full.stored_bytes.to_string(),
                fmt_f(ratio(&full)),
                fmt_time(full.put_s),
                fmt_time(full.recover_s),
            ],
        ],
    ));
    out.push_str(&format!(
        "\nDelta encoding stores {}% fewer bytes than full generations on this\n\
         drift pattern; restore pays for it by reconstructing through the base\n\
         chain.\n",
        fmt_f(savings)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_chain_stores_fewer_bytes_than_full() {
        let delta = run_chain(3, 16, true);
        let full = run_chain(3, 16, false);
        assert_eq!(delta.raw_bytes, full.raw_bytes, "same payloads either way");
        assert!(
            delta.stored_bytes < full.stored_bytes,
            "delta must beat full on sparse drift: {} vs {}",
            delta.stored_bytes,
            full.stored_bytes
        );
    }

    #[test]
    fn report_renders() {
        let out = run(2, 8);
        assert!(out.contains("delta chain"), "{out}");
        assert!(out.contains("restore wall"), "{out}");
    }
}
