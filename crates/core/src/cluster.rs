//! The in-process FanStore cluster runtime (paper §V-A, §V-D).
//!
//! Mirrors the `mpiexec` launch of one FanStore process per node: each
//! rank loads its assigned partitions from the "shared file system" (the
//! partition buffers handed to [`FanStore::run`]), optionally replicates
//! extra partitions from its ring neighbour, exchanges metadata with one
//! allgather, starts its daemon, and then runs the user's training
//! closure against a [`FsClient`].

use std::collections::HashMap;
use std::sync::Arc;

use mpi_sim::{launch, launch_with_faults, FaultPlan, NodeCtx, Tag};

use crate::cache::CacheConfig;
use crate::client::{FailoverConfig, FsClient};
use crate::daemon::{serve, tags};
use crate::framing::{put_bytes64, Malformed, Reader};
use crate::node::{LocalObject, NodeState};
use crate::trace::TraceRecorder;
use crate::FsError;

/// Ring-transfer tag namespace on the control channel.
const RING_TAG_BASE: Tag = 1000;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated nodes (one rank per node, as the paper
    /// prescribes).
    pub nodes: usize,
    /// Decompressed-cache configuration per node.
    pub cache: CacheConfig,
    /// How many ranks' partitions each node holds: 1 = only its own
    /// (default); k > 1 = also the partitions of its k-1 left ring
    /// neighbours, copied over the ring rather than re-read from the
    /// shared file system (§V-D "storing additional partitions").
    pub replication: usize,
    /// A broadcast partition (e.g. validation set) loaded by every node
    /// (§V-B).
    pub broadcast: Option<Vec<u8>>,
    /// Burst-buffer capacity per node in bytes. When set, FanStore::run
    /// validates that assigned partitions fit and clamps `replication` to
    /// the rounds every node can afford (§IV-C1 dynamic load decisions).
    pub node_capacity: Option<u64>,
    /// Span ring size per node (0 = tracing off). When non-zero the client
    /// and daemon record request spans; inspect via `fs.trace()` inside
    /// the closure. The POSIX call mix is counted in the registry
    /// (`client.posix.*`) either way.
    pub trace_ring: usize,
    /// Seeded fault schedule injected into the simulated fabric. Plans
    /// without an explicit channel scope are restricted to the service
    /// channel — injecting into the control channel would break the
    /// startup collectives and the teardown barrier rather than model a
    /// dying daemon.
    pub fault_plan: Option<FaultPlan>,
    /// Client-side recovery policy every rank's client runs under: rpc
    /// deadlines, replica failover over the ring rounds the placement
    /// granted, backoff. An unreachable peer degrades, never hangs.
    pub failover: FailoverConfig,
    /// Keep a read-through copy of every partition (models the shared
    /// file system staying available): the client's last resort after
    /// every replica failed, letting training survive a dead rank even
    /// for unreplicated partitions.
    pub read_through: bool,
    /// Each node's write store, a WAL (see [`crate::wal`]) that replays
    /// what its medium holds at daemon start. `None` (default) opens
    /// `WalConfig { sync_cost: Duration::ZERO, ..WalConfig::default() }`
    /// on a fresh [`crate::wal::RamMedia`]: writes stay purely in memory.
    pub wal: Option<crate::wal::WalConfig>,
    /// Pre-built WAL media, one per rank, used when `wal` is set. Lets a
    /// test share media across two `FanStore::run` invocations — the
    /// in-process model of restarting daemons on the same disks. Ranks
    /// beyond the vector (or `None`) get a fresh [`crate::wal::RamMedia`].
    pub wal_media: Option<Vec<Arc<crate::wal::RamMedia>>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 1,
            cache: CacheConfig::default(),
            replication: 1,
            broadcast: None,
            node_capacity: None,
            trace_ring: 0,
            fault_plan: None,
            failover: FailoverConfig::default(),
            read_through: false,
            wal: None,
            wal_media: None,
        }
    }
}

/// Entry point for running FanStore clusters.
pub struct FanStore;

/// Encode a list of partitions into one ring-transfer message:
/// `[u32 count]` then `[u64 len][partition]` each.
fn encode_partition_set(parts: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len() + 8).sum::<usize>() + 4);
    out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for p in parts {
        put_bytes64(&mut out, p);
    }
    out
}

/// Decode a ring-transfer message back into partitions. The bytes come
/// from a peer: a count or length the message cannot hold is
/// [`FsError::Corrupt`].
fn decode_partition_set(buf: &[u8]) -> Result<Vec<Vec<u8>>, FsError> {
    let parse = || -> Result<Vec<Vec<u8>>, Malformed> {
        let mut r = Reader::new(buf);
        let parts =
            (0..r.count(8)?).map(|_| Ok(r.bytes64()?.to_vec())).collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(parts)
    };
    parse().map_err(|e| e.corrupt("partition set"))
}

impl FanStore {
    /// Run `f` on every node of a FanStore cluster serving `partitions`.
    ///
    /// Partitions are assigned round-robin (`partition i -> rank i %
    /// nodes`); results are returned in rank order. The closure receives a
    /// fully initialised [`FsClient`] with the global namespace visible.
    pub fn run<T, F>(cfg: ClusterConfig, partitions: Vec<Vec<u8>>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&FsClient) -> T + Send + Sync,
    {
        let nodes = cfg.nodes.max(1);
        // Capacity-aware placement (§IV-C1): validate the assignment and
        // clamp replication to what every node can hold.
        let sizes: Vec<u64> = partitions.iter().map(|p| p.len() as u64).collect();
        let requested_rounds = cfg.replication.clamp(1, nodes) - 1;
        let placement = crate::placement::plan(&sizes, nodes, cfg.node_capacity, requested_rounds)
            .expect("partition placement");
        let replication = placement.extra_rounds + 1;
        // Read-through copy: the "shared file system" every partition was
        // packed from, kept reachable as the failover path of last resort.
        let read_through = cfg.read_through.then(|| {
            let mut copy = HashMap::new();
            for p in partitions.iter().chain(cfg.broadcast.as_ref()) {
                for e in crate::pack::parse_partition(p).expect("read-through partition parses") {
                    copy.insert(e.path, LocalObject::new(e.codec, e.stat, Arc::new(e.data)));
                }
            }
            Arc::new(copy)
        });
        let failover = cfg.failover.clone();
        let fault_plan = cfg.fault_plan.clone().map(|mut plan| {
            if plan.channels.is_none() {
                plan.channels = Some(vec![1]); // service channel only
            }
            plan
        });
        let partitions = Arc::new(partitions);
        let broadcast = Arc::new(cfg.broadcast.clone());
        let cache_cfg = cfg.cache;
        let trace_ring = cfg.trace_ring;
        let wal_cfg = cfg.wal.clone();
        let wal_media = cfg.wal_media.clone();
        let f = &f;

        let node_body = move |mut ctx: NodeCtx| {
            let mut control = ctx.take_channel(0);
            let service = ctx.take_channel(1);
            let service_remote = service.remote();
            let mut state = NodeState::new(ctx.rank, ctx.size, cache_cfg);
            if let Some(wcfg) = &wal_cfg {
                // This rank's durable medium: the caller-provided one
                // (surviving across runs — a restart on the same disk),
                // else a fresh in-RAM medium for this run only.
                let media: Arc<dyn crate::wal::WalMedia> = wal_media
                    .as_ref()
                    .and_then(|set| set.get(ctx.rank).cloned())
                    .map(|m| m as Arc<dyn crate::wal::WalMedia>)
                    .unwrap_or_else(|| crate::wal::RamMedia::new(wcfg.sync_cost));
                let (wal, _replay) =
                    crate::wal::WalStore::open(media, wcfg.clone(), &state.metrics)
                        .expect("wal open");
                state.attach_wal(Arc::new(wal));
            }
            let state = Arc::new(state);

            // 1. Load assigned partitions from the shared file system.
            let mut assigned: Vec<Vec<u8>> = Vec::new();
            for (i, p) in partitions.iter().enumerate() {
                if i % nodes == ctx.rank {
                    state.load_partition(p).expect("assigned partition parses");
                    assigned.push(p.clone());
                }
            }
            // Broadcast set: every node loads it in full.
            if let Some(b) = broadcast.as_ref() {
                state.load_partition(b).expect("broadcast partition parses");
            }

            // 2. Replicate extra partitions over the virtual ring: round r
            // receives the partitions owned by the rank r steps to the
            // left, forwarding what arrived in the previous round (§V-D).
            let mut traveling = assigned;
            for round in 1..replication {
                let tag = RING_TAG_BASE + round as Tag;
                control
                    .send(control.ring_right(), tag, encode_partition_set(&traveling))
                    .expect("ring send");
                let msg =
                    control.recv_match(Some(control.ring_left()), Some(tag)).expect("ring recv");
                let received =
                    decode_partition_set(&msg.payload).expect("replica partition set parses");
                for p in &received {
                    state.load_partition(p).expect("replica partition parses");
                }
                traveling = received;
            }

            // 3. Metadata allgather: after this, every stat()/readdir() is
            // node-local (§IV-C1).
            let local_meta = state.encode_local_meta();
            let gathered = control.allgather(local_meta).expect("metadata allgather");
            for (rank, buf) in gathered.iter().enumerate() {
                if rank != ctx.rank {
                    state.merge_meta(buf).expect("peer metadata parses");
                }
            }

            // 4. Daemon + client. The daemon owns the service endpoint; the
            // client keeps a send-only handle. Both record spans into this
            // rank's one trace recorder.
            let daemon_state = Arc::clone(&state);
            let trace = (trace_ring > 0).then(|| Arc::new(TraceRecorder::new(trace_ring)));
            let daemon_trace = trace.clone();
            let result = std::thread::scope(|scope| {
                let daemon = scope.spawn(move || serve(daemon_state, service, daemon_trace));
                let mut client = FsClient::new(
                    Arc::clone(&state),
                    service_remote.clone(),
                    failover.clone(),
                    replication - 1,
                );
                if let Some(t) = &trace {
                    client = client.with_trace(Arc::clone(t));
                }
                if let Some(rt) = &read_through {
                    client = client.with_read_through(Arc::clone(rt));
                }

                // Catch panics from the user closure so the daemon still
                // gets its shutdown and peer ranks still get their barrier
                // partner — otherwise one panicking rank deadlocks the
                // whole cluster instead of failing it.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&client)));

                // 5. Quiesce: nobody may still be fetching from a peer
                // daemon once shutdowns begin.
                let _ = control.barrier();
                let _ = service_remote.rpc(ctx.rank, tags::SHUTDOWN, Vec::new());
                daemon.join().expect("daemon thread");
                match result {
                    Ok(r) => r,
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            });
            result
        };

        match fault_plan {
            Some(plan) => launch_with_faults(nodes, 2, plan, node_body).0,
            None => launch(nodes, 2, node_body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{prepare, PrepConfig};

    fn dataset(n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("train/c{:02}/img{i:04}.bin", i % 4),
                    format!("content of file {i} ").repeat(40).into_bytes(),
                )
            })
            .collect()
    }

    /// The partition-set row of `tests/hostile_bytes.rs`: the codec is
    /// private and no public entry feeds it chosen bytes, so the golden pin
    /// and the three mutations live beside it.
    #[test]
    fn partition_set_survives_hostile_bytes() {
        let parts = vec![b"abc".to_vec(), Vec::new(), vec![7u8; 9]];
        let good = encode_partition_set(&parts);
        // Captured at commit 1554774: [u32 count] then [u64 len][bytes] each.
        let mut golden = vec![3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, b'a', b'b', b'c'];
        golden.extend_from_slice(&[0; 8]);
        golden.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7]);
        assert_eq!(good, golden, "encoded bytes changed");
        assert_eq!(decode_partition_set(&good).unwrap(), parts);
        let corrupt = |buf: &[u8], what: &str| {
            let got = decode_partition_set(buf);
            assert!(matches!(got, Err(FsError::Corrupt(_))), "{what}: {got:?}");
        };
        for cut in 0..good.len() {
            corrupt(&good[..cut], &format!("cut to {cut}"));
        }
        // A flipped byte spells an error or other partitions, never a
        // panic; a count or length at its type's maximum cannot fit.
        for at in 0..good.len() {
            for mask in [0x01, 0x80] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                let _ = decode_partition_set(&bad);
            }
        }
        for (at, width) in [(0, 4), (4, 8), (15, 8)] {
            let mut bad = good.clone();
            bad[at..at + width].fill(0xFF);
            corrupt(&bad, &format!("{width}-byte field at {at} set to max"));
        }
        let mut trailing = good;
        trailing.push(0);
        corrupt(&trailing, "trailing byte");
    }

    #[test]
    fn every_node_reads_every_file() {
        let files = dataset(12);
        let packed = prepare(files.clone(), &PrepConfig { partitions: 4, ..Default::default() });
        let results = FanStore::run(
            ClusterConfig { nodes: 4, ..Default::default() },
            packed.partitions,
            |fs| {
                let mut ok = 0usize;
                for (path, expect) in &files {
                    let got = fs.read_whole(path).unwrap();
                    assert_eq!(&got, expect, "{path} on rank {}", fs.rank());
                    ok += 1;
                }
                ok
            },
        );
        assert_eq!(results, vec![12; 4]);
    }

    #[test]
    fn remote_fetches_happen_and_count() {
        let files = dataset(8);
        let packed = prepare(files.clone(), &PrepConfig { partitions: 2, ..Default::default() });
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            |fs| {
                for (path, _) in &files {
                    fs.read_whole(path).unwrap();
                }
                (fs.state().stats.local_opens.get(), fs.state().stats.remote_opens.get())
            },
        );
        for (local, remote) in results {
            assert_eq!(local + remote, 8);
            assert_eq!(remote, 4, "half the files live on the peer");
        }
    }

    #[test]
    fn replication_eliminates_remote_traffic() {
        let files = dataset(8);
        let packed = prepare(files.clone(), &PrepConfig { partitions: 4, ..Default::default() });
        let results = FanStore::run(
            ClusterConfig { nodes: 4, replication: 4, ..Default::default() },
            packed.partitions,
            |fs| {
                for (path, _) in &files {
                    fs.read_whole(path).unwrap();
                }
                fs.state().stats.remote_opens.get()
            },
        );
        assert_eq!(results, vec![0; 4], "full replication: all reads local");
    }

    #[test]
    fn more_partitions_than_nodes_reads_remotely() {
        // Prep records partition indices in `owner_rank`; with more
        // partitions than nodes those indices exceed the rank range and
        // must reduce modulo the cluster size (partition p loads on rank
        // p % nodes), or every file in a high partition is unreachable.
        let files = dataset(12);
        let packed = prepare(files.clone(), &PrepConfig { partitions: 6, ..Default::default() });
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            |fs| files.iter().filter(|(p, d)| &fs.read_whole(p).unwrap() == d).count(),
        );
        assert_eq!(results, vec![12; 2]);
    }

    #[test]
    fn metadata_is_global_after_allgather() {
        let files = dataset(10);
        let packed = prepare(files, &PrepConfig { partitions: 3, ..Default::default() });
        let results = FanStore::run(
            ClusterConfig { nodes: 3, ..Default::default() },
            packed.partitions,
            |fs| {
                // stat every file + enumerate the tree, all node-local.
                let found = fs.enumerate("train").unwrap();
                let st = fs.stat("train/c00/img0000.bin").unwrap();
                (found.len(), st.size)
            },
        );
        for (count, size) in results {
            assert_eq!(count, 10);
            assert!(size > 0);
        }
    }

    #[test]
    fn broadcast_partition_local_everywhere() {
        let train = dataset(4);
        let val = vec![("val/v0.bin".to_string(), vec![9u8; 2000])];
        let packed = prepare(train, &PrepConfig { partitions: 2, ..Default::default() });
        let bcast = crate::prep::prepare_broadcast(val, &PrepConfig::default());
        let results = FanStore::run(
            ClusterConfig { nodes: 2, broadcast: Some(bcast), ..Default::default() },
            packed.partitions,
            |fs| {
                let data = fs.read_whole("val/v0.bin").unwrap();
                assert_eq!(data, vec![9u8; 2000]);
                fs.state().stats.remote_opens.get()
            },
        );
        assert_eq!(results, vec![0, 0], "validation reads are all local");
    }

    #[test]
    fn write_and_stat_across_nodes() {
        let packed = prepare(dataset(2), &PrepConfig { partitions: 2, ..Default::default() });
        let results = FanStore::run(
            ClusterConfig { nodes: 2, ..Default::default() },
            packed.partitions,
            |fs| {
                // Rank 0 writes a checkpoint; after a barrier-free delay the
                // other rank stats it via the metadata owner.
                if fs.rank() == 0 {
                    fs.write_whole("ckpt/model_epoch_01.h5", &vec![1u8; 4096]).unwrap();
                }
                // Synchronise via busy retry (stat falls back to the meta
                // owner rank).
                let mut size = None;
                for _ in 0..200 {
                    if let Ok(st) = fs.stat("ckpt/model_epoch_01.h5") {
                        size = Some(st.size);
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                size
            },
        );
        // The writer sees it immediately; the peer may or may not see it
        // depending on which rank owns the metadata — it must at least not
        // crash, and the writer's view must be exact.
        assert_eq!(results[0], Some(4096));
    }

    #[test]
    fn closure_panic_fails_cleanly_not_deadlocks() {
        // A panicking rank must fail the run (propagated panic), not hang
        // the cluster waiting for daemons/barriers.
        let packed = prepare(dataset(4), &PrepConfig { partitions: 2, ..Default::default() });
        let result = std::panic::catch_unwind(|| {
            FanStore::run(
                ClusterConfig { nodes: 2, ..Default::default() },
                packed.partitions.clone(),
                |fs| {
                    if fs.rank() == 1 {
                        panic!("simulated training failure");
                    }
                    fs.read_whole("train/c00/img0000.bin").unwrap().len()
                },
            )
        });
        assert!(result.is_err(), "panic must propagate");
    }

    #[test]
    fn single_node_cluster_works() {
        let files = dataset(3);
        let packed = prepare(files.clone(), &PrepConfig::default());
        let results = FanStore::run(ClusterConfig::default(), packed.partitions, |fs| {
            files.iter().all(|(p, d)| &fs.read_whole(p).unwrap() == d)
        });
        assert_eq!(results, vec![true]);
    }
}
