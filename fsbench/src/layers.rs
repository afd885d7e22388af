//! The per-layer numbers of a traced run. Three kinds:
//!
//! * probe: the layer's public functions timed from here on a sample of
//!   the workload's own generated inputs;
//! * count: read after the timed phase from the metrics registries, the
//!   cache and the buffer pool;
//! * span: read from the bench-side spans, the program's own trace ring
//!   and histograms of the traced phase.
//!
//! A layer the workload bypasses reports 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use fanstore::attrib::{aggregate, attribute, SEGMENTS};
use fanstore::bufpool::BufPool;
use fanstore::cache::{CacheConfig, FileCache};
use fanstore::metrics::MetricsRegistry;
use fanstore::node::{decompress_object_into, NodeState};
use fanstore::pack::{
    build_chunked, chunk_payload, decode_chunk, parse_chunk_table, parse_partition,
};
use fanstore::prep::{prepare, PrepConfig};
use fanstore::wal::{RamMedia, WalConfig, WalMedia, WalStore};
use fanstore_compress::crc32::crc32;
use fanstore_compress::{compress_to_vec, registry};

use crate::util::{median, tail, OneCpu};
use crate::workloads::{wal_config, Phase, Workload, STEP_OPS, SYNC_COST};

pub type Metrics = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Repeat `pass` until `budget_s` has gone by; returns passes and seconds.
fn repeat(budget_s: f64, mut pass: impl FnMut()) -> (u64, f64) {
    let t = Instant::now();
    let mut n = 0u64;
    loop {
        pass();
        n += 1;
        let s = t.elapsed().as_secs_f64();
        if s >= budget_s {
            return (n, s);
        }
    }
}

/// Probes that need nothing from the workload: what this machine gives a
/// layer to work with, so that layer numbers read as ratios.
fn machine_probes(m: &mut Metrics) {
    let src = vec![7u8; 16 << 20];
    let mut dst = vec![0u8; 16 << 20];
    let (n, s) = repeat(0.1, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    m.insert("bench.machine.memcpy_mb_per_s", n as f64 * src.len() as f64 / 1e6 / s);

    // One thread wakes another through a mutex and a condition variable,
    // which is how every channel in the simulated fabric hands off.
    const ROUNDS: u32 = 20_000;
    let turn = Arc::new((Mutex::new(0u32), Condvar::new()));
    let t = Instant::now();
    std::thread::scope(|scope| {
        for me in 0..2u32 {
            let turn = Arc::clone(&turn);
            scope.spawn(move || {
                let (lock, cv) = &*turn;
                let mut g = lock.lock().expect("ping-pong lock");
                while *g < 2 * ROUNDS {
                    if *g % 2 == me {
                        *g += 1;
                        cv.notify_one();
                    } else {
                        g = cv.wait(g).expect("ping-pong wait");
                    }
                }
                cv.notify_one();
            });
        }
    });
    m.insert("bench.machine.handoff_us", t.elapsed().as_secs_f64() * 1e6 / f64::from(2 * ROUNDS));
}

/// Round trip through `mpi_sim` alone: a 64-byte request answered with a
/// reply of the size the request names.
fn fabric_probes(m: &mut Metrics) {
    const ECHO: u64 = 1;
    const STOP: u64 = 2;
    const ROUNDS: usize = 4000;
    let rtts = mpi_sim::launch(2, 1, |mut ctx| {
        let mut ch = ctx.take_channel(0);
        if ctx.rank == 1 {
            while let Ok(msg) = ch.recv() {
                let want = u32::from_le_bytes(msg.payload[..4].try_into().expect("4 bytes"));
                msg.reply(vec![0u8; want as usize]);
                if msg.tag == STOP {
                    break;
                }
            }
            return Vec::new();
        }
        let mut out = Vec::new();
        for reply_len in [64u32, 64 << 10] {
            let mut request = vec![0u8; 64];
            request[..4].copy_from_slice(&reply_len.to_le_bytes());
            let mut us: Vec<f64> = (0..ROUNDS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(ch.rpc(1, ECHO, request.clone()).expect("echo"));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            out.push(median(&mut us));
        }
        ch.rpc(1, STOP, vec![0u8; 64]).expect("stop");
        out
    });
    m.insert("mpisim.rpc.rtt_us_64b", rtts[0][0]);
    m.insert("mpisim.rpc.rtt_us_64k", rtts[0][1]);
}

/// Probes over `files`, a sample of the workload's inputs, packed the
/// way the workload packs them.
fn input_probes(files: &[(String, Vec<u8>)], prep: &PrepConfig, m: &mut Metrics) {
    let raw_bytes: usize = files.iter().map(|(_, d)| d.len()).sum();
    let mean_len = raw_bytes / files.len().max(1);
    let packed = prepare(files.to_vec(), prep);
    m.entry("compress.ratio").or_insert(packed.ratio());
    let entries: Vec<_> = packed
        .partitions
        .iter()
        .flat_map(|p| parse_partition(p).expect("probe partition parses"))
        .collect();

    let mut out = Vec::new();
    let (n, s) = repeat(0.15, || {
        for e in &entries {
            decompress_object_into(e.codec, &e.data, e.stat.size as usize, &e.path, &mut out)
                .expect("probe entry decodes");
            black_box(&out);
        }
    });
    m.insert("compress.decode.mb_per_s", n as f64 * raw_bytes as f64 / 1e6 / s);
    m.insert("compress.decode.us_per_file", s * 1e6 / (n as f64 * entries.len() as f64));

    let codec = registry::create(prep.codec).expect("workload codec");
    let mut encoded = 0usize;
    let (_, s) = repeat(0.15, || {
        for (_, d) in files.iter().take((1 << 20) / mean_len.max(1) + 1) {
            black_box(compress_to_vec(codec.as_ref(), d));
            encoded += d.len();
        }
    });
    m.insert("compress.encode.mb_per_s", encoded as f64 / 1e6 / s);

    let (n, s) = repeat(0.05, || {
        for (_, d) in files {
            black_box(crc32(d));
        }
    });
    m.insert("compress.crc32.mb_per_s", n as f64 * raw_bytes as f64 / 1e6 / s);

    let part = &packed.partitions[0];
    let per_part = parse_partition(part).expect("probe partition parses").len();
    let (n, s) = repeat(0.05, || {
        black_box(parse_partition(part).expect("probe partition parses"));
    });
    m.insert("pack.parse_partition.us_per_entry", s * 1e6 / (n as f64 * per_part as f64));

    // One chunked container of up to 1 MiB of the sample, 64 KiB chunks.
    let mut blob: Vec<u8> = Vec::new();
    for (_, d) in files {
        blob.extend_from_slice(&d[..d.len().min((1 << 20) - blob.len())]);
    }
    let container = build_chunked(&blob, 64 << 10, prep.codec);
    let (n, s) = repeat(0.02, || {
        black_box(parse_chunk_table(black_box(&container)).expect("probe table parses"));
    });
    m.insert("pack.chunk_table.parse_ns", s * 1e9 / n as f64);
    let table = parse_chunk_table(&container).expect("probe table parses");
    let (n, s) = repeat(0.1, || {
        for idx in 0..table.chunks.len() {
            let payload = chunk_payload(&container, &table, idx).expect("probe chunk verifies");
            black_box(decode_chunk(&table, idx, payload).expect("probe chunk decodes"));
        }
    });
    m.insert("pack.decode_chunk.mb_per_s", n as f64 * blob.len() as f64 / 1e6 / s);

    let (n, s) = repeat(0.1, || {
        let node = NodeState::new(0, 1, CacheConfig::default());
        black_box(node.load_partition(part).expect("probe partition loads"));
    });
    m.insert("node.load_partition.mb_per_s", n as f64 * part.len() as f64 / 1e6 / s);
    let node = NodeState::new(0, 1, CacheConfig::default());
    node.load_partition(part).expect("probe partition loads");
    let loaded: Vec<&String> = files.iter().map(|(p, _)| p).step_by(2).collect();
    let (n, s) = repeat(0.05, || {
        for p in &loaded {
            black_box(node.meta.read().stat(p));
        }
    });
    m.insert("meta.stat.ns", s * 1e9 / (n as f64 * loaded.len() as f64));

    // The cache alone, at the workload's file size. Hit path: open and
    // close a resident entry. Miss path: insert into a full shard, which
    // evicts the oldest entry that is not open.
    let body = Arc::new(vec![0u8; mean_len.max(1)]);
    let names: Vec<String> = (0..4096).map(|i| format!("probe/f{i:05}")).collect();
    let roomy = FileCache::new(CacheConfig {
        capacity: 64 * names.len() * body.len(),
        ..CacheConfig::default()
    });
    for p in &names {
        roomy.insert(p, Arc::clone(&body));
        roomy.close(p);
    }
    let (n, s) = repeat(0.05, || {
        for p in &names {
            black_box(roomy.open(p));
            roomy.close(p);
        }
    });
    m.insert("cache.open_hit.ns", s * 1e9 / (n as f64 * names.len() as f64));
    let tight = FileCache::new(CacheConfig { capacity: 64 * body.len(), ..CacheConfig::default() });
    let (n, s) = repeat(0.05, || {
        for p in &names {
            black_box(tight.insert(p, Arc::clone(&body)));
            tight.close(p);
        }
    });
    m.insert("cache.insert_evict.ns", s * 1e9 / (n as f64 * names.len() as f64));

    let pool = BufPool::default();
    let (n, s) = repeat(0.05, || {
        for _ in 0..1024 {
            pool.put(black_box(pool.take(mean_len)));
        }
    });
    m.insert("bufpool.take_put.ns", s * 1e9 / (n as f64 * 1024.0));
}

/// The WAL alone, on its own medium, with the workload's commit policy
/// and the modelled fsync: 64 puts of 16 KiB make one flush of 1 MiB,
/// four flushes make one compaction.
fn wal_probes(files: &[(String, Vec<u8>)], m: &mut Metrics) {
    let cfg = WalConfig { memtable_budget: usize::MAX, compact_min_segments: 0, ..wal_config() };
    let media = RamMedia::new(SYNC_COST) as Arc<dyn WalMedia>;
    let (store, _) = WalStore::open(media, cfg, &MetricsRegistry::new()).expect("probe wal opens");
    let pool: Vec<u8> = files.iter().flat_map(|(_, d)| d.iter().copied()).take(4 << 20).collect();
    let value_len = (16 << 10).min(pool.len());
    let (mut put_us, mut flush_ms) = (Vec::new(), Vec::new());
    for flush in 0..4 {
        for i in 0..64 {
            let at = ((flush * 64 + i) * 4099) % (pool.len() - value_len + 1);
            let value = pool[at..at + value_len].to_vec();
            let t = Instant::now();
            store.put(&format!("probe/k{flush}-{i:03}"), value).expect("probe put");
            put_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        store.flush().expect("probe flush");
        flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mib = (64 * value_len) as f64 / f64::from(1 << 20);
    m.insert("wal.put.p50_us", median(&mut put_us));
    m.insert("wal.flush.ms_per_mib", median(&mut flush_ms) / mib);
    let t = Instant::now();
    let report = store.compact().expect("probe compaction");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    m.insert("wal.compact.ms_per_mib", ratio(ms, report.in_bytes as f64 / f64::from(1 << 20)));
}

/// Every probe runs on one CPU, like the cluster it explains.
pub fn probes(files: &[(String, Vec<u8>)], prep: &PrepConfig) -> Metrics {
    let _pin = OneCpu::pin();
    let mut m = Metrics::new();
    machine_probes(&mut m);
    fabric_probes(&mut m);
    input_probes(files, prep, &mut m);
    wal_probes(files, &mut m);
    m
}

/// Counts and span numbers of the traced phase `t`; `u` is the untraced
/// phase of the same run, which gives set-up costs and the speed that
/// tracing is compared with.
pub fn from_phases(w: Workload, u: &Phase, t: &Phase, m: &mut Metrics) {
    let c = &t.counts;
    let ops = t.ops as f64;
    let wall_us = t.wall_s * 1e6;
    let counter = |name: &str| (c.r0.counter(name) + c.r1.counter(name)) as f64;
    let hist_sum = |snap: &fanstore::metrics::Snapshot, name: &str| {
        snap.histograms.get(name).map_or(0.0, |h| h.sum as f64)
    };
    let hist_count = |snap: &fanstore::metrics::Snapshot, name: &str| {
        snap.histograms.get(name).map_or(0.0, |h| h.count as f64)
    };
    // Medians of the program's own histograms, read live: they cover the
    // cluster's whole life, of which the timed phase is nearly all.
    let p50 = |registry: &MetricsRegistry, snap: &fanstore::metrics::Snapshot, name: &str| {
        if hist_count(snap, name) > 0.0 {
            registry.histogram(name).quantile(0.5) as f64
        } else {
            0.0
        }
    };
    let [r0, r1] = t.registries.as_ref().expect("a timed phase keeps both registries");

    if u.stored_bytes > 0 && w != Workload::DurableWrites {
        m.insert("compress.ratio", ratio(u.stored_for_bytes as f64, u.stored_bytes as f64));
    }
    m.insert("prep.prepare.s", u.setup.prepare_s);
    m.insert("prep.prepare.mb_per_s", ratio(u.stored_for_bytes as f64 / 1e6, u.setup.prepare_s));
    m.insert("meta.enumerate.us_per_file", ratio(u.setup.enumerate_s * 1e6, u.setup.files as f64));

    m.insert("cache.hit_ratio", ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64));
    m.insert("cache.evictions_per_op", ratio(c.cache_evictions as f64, ops));
    m.insert("bufpool.hit_ratio", ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64));

    let [requests, sent, received] = c.fabric;
    m.insert("mpisim.msgs_per_op", ratio(2.0 * requests as f64, ops));
    m.insert(
        "mpisim.wire_bytes_per_user_byte",
        ratio((sent + received) as f64, t.user_bytes as f64),
    );

    m.insert("daemon.serve.p50_us", p50(r1, &c.r1, "daemon.serve.latency_us"));
    m.insert("daemon.queue_wait.p50_us", p50(r1, &c.r1, "daemon.queue.wait_us"));
    m.insert("daemon.busy_share", ratio(hist_sum(&c.r1, "daemon.serve.latency_us"), wall_us));
    m.insert("daemon.served.requests", hist_count(&c.r1, "daemon.serve.latency_us"));

    let span_p50 = |name: &str| t.spans.as_ref().map_or(0.0, |s| median(&mut s.durations_us(name)));
    m.insert("client.local_read.p50_us", span_p50("client.open.local"));
    m.insert("client.remote_read.p50_us", span_p50("client.open.remote"));
    m.insert("client.range.local_p50_us", span_p50("client.read_range.local"));
    m.insert("client.range.remote_p50_us", span_p50("client.read_range.remote"));
    m.insert("client.write_whole.p50_us", span_p50("client.write_whole"));
    let write_max_us = t
        .spans
        .as_ref()
        .map_or(0.0, |s| s.durations_us("client.write_whole").into_iter().fold(0.0, f64::max));
    m.insert("client.write_whole.max_ms", write_max_us / 1e3);
    let hit_ns = if w == Workload::WarmEpoch { span_p50("op") * 1e3 } else { 0.0 };
    m.insert("client.posix_hit.ns", hit_ns);
    m.insert("client.rpc.p50_us", p50(r0, &c.r0, "fabric.rpc.latency_us"));
    let decode_us: f64 =
        c.r0.histograms
            .iter()
            .filter(|(k, _)| k.starts_with("codec.") && k.ends_with(".decode_us"))
            .map(|(_, h)| h.sum as f64)
            .sum();
    m.insert("client.decode.busy_share", ratio(decode_us, wall_us));

    let agg = aggregate(&attribute(&t.program_spans));
    let total = agg.total_wall_us as f64;
    for (i, name) in SEGMENTS.iter().enumerate() {
        let key = ATTRIB_SHARES[i];
        debug_assert!(key.contains(name));
        m.insert(key, ratio(agg.totals[i] as f64, total));
    }
    m.insert("attrib.residual.share", ratio(agg.residual_us as f64, total));
    m.insert("attrib.coverage", if agg.requests > 0 { agg.coverage() } else { 0.0 });

    m.insert("wal.syncs_per_write", ratio(c.media_syncs as f64, ops));
    m.insert("wal.flush.count", counter("wal.flush.count"));
    m.insert("wal.compact.runs", counter("wal.compact.runs"));
    let appended = counter("wal.append.bytes");
    m.insert(
        "wal.write_amp",
        ratio(appended + counter("wal.flush.bytes") + counter("wal.compact.out_bytes"), appended),
    );
    m.insert("wal.replay.ms", t.replay_ms);
    m.insert("ckpt.put.p50_ms", median(&mut t.ckpt_put_ms.clone()));
    m.insert("ckpt.recover.ms", t.ckpt_recover_ms);
    m.insert("ckpt.stored_per_raw", ratio(t.ckpt_stored_bytes as f64, t.ckpt_raw_bytes as f64));

    for (key, stage) in TRAIN_SHARES {
        let name = format!("train.stall.{stage}.wait_us");
        m.insert(key, ratio(hist_sum(&c.r0, &name), wall_us));
    }

    // The tail the end-to-end metrics leave out as too much the host's to
    // hold a bound: p99 of the untraced phase's steps, or the highest
    // percentile with ten samples beyond it.
    let mut step_us: Vec<f64> = u.steps.iter().map(|s| s.us).collect();
    step_us.sort_unstable_by(f64::total_cmp);
    m.insert("bench.step.p99_us", tail(&step_us, 0.99).1);

    m.insert(
        "bench.trace.overhead_share",
        1.0 - ratio(ratio(ops, t.wall_s), ratio(u.ops as f64, u.wall_s)),
    );
    let unexplained = t
        .spans
        .as_ref()
        .and_then(|s| s.totals().get("step").copied())
        .map_or(0.0, |st| ratio(st.self_ns as f64, st.total_ns as f64));
    m.insert("bench.trace.unexplained_share", unexplained);

    // Eq. 3 of the paper fed with the probes: a batch of 32 files, half
    // of them remote in one GET_MANY, each decoded once. Files per
    // second the model predicts over files per second measured.
    let model = if w == Workload::ColdEpoch && u.ops > 0 {
        let batch = STEP_OPS as f64;
        let remote = batch / 2.0;
        let stored_mb_per_file = ratio(u.stored_bytes as f64, u.setup.files as f64) / 1e6;
        let tpt = ratio(1e6, m["mpisim.rpc.rtt_us_64b"]);
        let bdw = ratio(65536.0, m["mpisim.rpc.rtt_us_64k"]); // bytes per us is MB/s
        let t_fetch = fanstore_select::t_read(remote, remote * stored_mb_per_file, tpt, bdw);
        let t_decode = batch * m["compress.decode.us_per_file"] / 1e6;
        ratio(ratio(batch, t_fetch + t_decode), ratio(u.ops as f64, u.wall_s))
    } else {
        0.0
    };
    m.insert("select.model_over_measured", model);
}

const ATTRIB_SHARES: [&str; 6] = [
    "attrib.admission.share",
    "attrib.queue.share",
    "attrib.network.share",
    "attrib.serve.share",
    "attrib.decode.share",
    "attrib.cache.share",
];

const TRAIN_SHARES: [(&str, &str); 4] = [
    ("train.prefetch.ready_wait_share", "ready"),
    ("train.prefetch.feed_wait_share", "feed"),
    ("train.prefetch.work_wait_share", "work"),
    ("train.prefetch.emit_wait_share", "emit"),
];
