//! Chaos recovery: run a 4-node training pass while the fabric kills a
//! rank mid-epoch and corrupts payloads, and watch the client recover
//! via replica failover and read-through — the §V-E fault story live.
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```

use std::time::Duration;

use fanstore_repro::mpi::FaultPlan;
use fanstore_repro::store::client::FailoverConfig;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::train::epoch::{run_epochs, EpochConfig};

fn main() {
    let files: Vec<(String, Vec<u8>)> = (0..24)
        .map(|i| {
            (
                format!("train/shard{}/sample{i:03}.bin", i % 4),
                format!("sample {i} payload ").repeat(60).into_bytes(),
            )
        })
        .collect();
    let total_bytes: u64 = files.iter().map(|(_, d)| d.len() as u64).sum();
    let packed = prepare(files, &PrepConfig { partitions: 8, ..Default::default() });

    let epoch_cfg = EpochConfig {
        root: "train".into(),
        batch_per_node: 4,
        epochs: 2,
        checkpoint_every: 0,
        checkpoint_bytes: 0,
        seed: 42,
        prefetch: None,
    };

    // The fault schedule: rank 0's service links go dark after 3
    // messages each, and ~1% of surviving payloads are corrupted. Every
    // cluster recovers under one `FailoverConfig`; this run tunes the
    // default's deadline and backoff.
    let plan = FaultPlan::new(0xC4A0).kill(0, 3).corrupt_prob(0.01);
    let cfg = ClusterConfig {
        nodes: 4,
        replication: 2,
        read_through: true,
        fault_plan: Some(plan),
        failover: FailoverConfig {
            rpc_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(2),
            seed: 42,
            ..Default::default()
        },
        ..Default::default()
    };

    println!("chaotic run: 4 nodes, rank 0 dies mid-epoch, 1% corruption");
    let reports = FanStore::run(cfg, packed.partitions.clone(), |fs| {
        let report = run_epochs(fs, &epoch_cfg).expect("training survives");
        let s = &fs.state().stats;
        (report, s.rpc_timeouts.get(), s.crc_failures.get(), s.read_through_reads.get())
    });
    for (rank, (r, timeouts, crc, read_through)) in reports.iter().enumerate() {
        println!(
            "  rank {rank}: bytes {:>6} ({}), degraded {:>2}, \
             timeouts {timeouts}, crc failures {crc}, read-through {read_through}",
            r.bytes_read,
            if r.bytes_read == total_bytes * 2 { "exact" } else { "WRONG" },
            r.degraded,
        );
    }

    // Rank 0 dead from the start, with nowhere else to read its files
    // from: the default policy's deadlines turn the dead rank into a
    // prompt, typed error instead of a hang.
    println!("rank 0 dead, no replicas, no read-through: bounded failure");
    let cfg = ClusterConfig {
        nodes: 4,
        replication: 1, // no replicas: rank 0's files are unreachable
        read_through: false,
        fault_plan: Some(FaultPlan::new(0xC4A0).kill(0, 0)),
        ..Default::default()
    };
    let outcomes = FanStore::run(cfg, packed.partitions, |fs| {
        run_epochs(fs, &epoch_cfg).map(|r| r.bytes_read).map_err(|e| e.to_string())
    });
    for (rank, out) in outcomes.iter().enumerate() {
        match out {
            Ok(bytes) => println!("  rank {rank}: completed, {bytes} bytes"),
            Err(e) => println!("  rank {rank}: failed fast: {e}"),
        }
    }
}
