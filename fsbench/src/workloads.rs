//! The five workloads: what each generates from the seed, how rank 0
//! drives it, and how every delivered byte is checked.
//!
//! All of them run a 2-rank in-process cluster in which only rank 0
//! drives load, closed loop, one call outstanding; rank 1's closure
//! returns at once and its daemon serves until the teardown barrier. With
//! both ranks driving, the run measures how the scheduler interleaves
//! them. For the same reason the cluster's threads share one CPU.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fanstore::cache::CacheConfig;
use fanstore::ckpt::{CheckpointStore, CkptConfig, Recovery};
use fanstore::client::FsClient;
use fanstore::cluster::{ClusterConfig, FanStore};
use fanstore::metrics::{now_us, MetricsRegistry, Snapshot};
use fanstore::node::NodeState;
use fanstore::prep::{prepare, Packed, PrepConfig};
use fanstore::trace::{SpanEvent, TraceRecorder};
use fanstore::wal::{RamMedia, WalConfig, WalMedia, WalStore};
use fanstore::FsError;
use fanstore_datagen::{DatasetKind, DatasetSpec};
use fanstore_train::prefetch::{prefetched_epoch, PrefetchConfig};

use crate::spans::Spans;
use crate::util::{derive, rss_mb, OneCpu, Rng};

/// Ops in one step of every workload but `durable_writes` (one write) and
/// `cold_epoch` (one prefetched batch, also 32 files).
pub const STEP_OPS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdEpoch,
    WarmEpoch,
    SmallFiles,
    RangeReads,
    DurableWrites,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdEpoch,
        Workload::WarmEpoch,
        Workload::SmallFiles,
        Workload::RangeReads,
        Workload::DurableWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdEpoch => "cold_epoch",
            Workload::WarmEpoch => "warm_epoch",
            Workload::SmallFiles => "small_files",
            Workload::RangeReads => "range_reads",
            Workload::DurableWrites => "durable_writes",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// When a timed phase ends: after a time, or after a step count (then
/// every count the program keeps repeats exactly for one seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    Seconds(f64),
    Steps(u64),
    /// Set up and stop: no timed phase, no verification pass.
    SetupOnly,
}

/// Dataset and cache sizes of a read workload.
struct ReadShape {
    kind: DatasetKind,
    files: usize,
    file_size: usize,
    /// `PrepConfig.chunk_size`: 0 packs whole files.
    chunk_size: usize,
    /// Decompressed-cache bytes per node.
    cache_bytes: usize,
}

/// Sizes are chosen so that one set-up takes one to two seconds on two
/// vCPUs (it is repeated within a run) while the dataset stays a multiple
/// of the cache wherever the workload is meant to miss. `quick` is the
/// shape of the unit tests: an eighth of the files.
fn read_shape(w: Workload, quick: bool) -> ReadShape {
    let (kind, files, file_size, chunk_size, cache_bytes) = match w {
        // 32 MiB raw against 4 MiB of cache per node: every read decodes.
        Workload::ColdEpoch => (DatasetKind::EmTif, 256, 128 << 10, 0, 4 << 20),
        // 32 MiB raw, stored raw, against 256 MiB: every read hits.
        Workload::WarmEpoch => (DatasetKind::ImageNetJpg, 1024, 32 << 10, 0, 256 << 20),
        // 9.4 MB of 1.2 KB files against 1 MiB: per-message cost.
        Workload::SmallFiles => (DatasetKind::TokamakNpz, 8192, 1200, 0, 1 << 20),
        // 16 MiB in 64 KiB chunks against 2 MiB: partial residency.
        Workload::RangeReads => (DatasetKind::LanguageTxt, 16, 1 << 20, 64 << 10, 2 << 20),
        Workload::DurableWrites => unreachable!("durable_writes generates no packed dataset"),
    };
    let files = if quick { files / 8 } else { files };
    ReadShape { kind, files, file_size, chunk_size, cache_bytes }
}

/// Share of a file one `range_reads` call asks for.
const RANGE_SHARE: f64 = 0.05;

/// The generated inputs of a read workload. `data` is the benchmark's
/// own copy of every file, which reads are compared against; it is part
/// of `rss_mb` as a constant.
struct Inputs {
    root: &'static str,
    paths: Vec<String>,
    data: Vec<Vec<u8>>,
    prep: PrepConfig,
    packed: Packed,
    cache_bytes: usize,
    datagen_s: f64,
    prepare_s: f64,
}

fn build_inputs(w: Workload, seed: u64, quick: bool) -> Inputs {
    let shape = read_shape(w, quick);
    let mut spec = DatasetSpec::scaled(shape.kind, shape.files, derive(seed, 1));
    spec.file_size = shape.file_size;
    let t = Instant::now();
    let files = spec.generate_all();
    let datagen_s = t.elapsed().as_secs_f64();
    let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
    let data: Vec<Vec<u8>> = files.iter().map(|(_, d)| d.clone()).collect();
    let prep = PrepConfig { partitions: 2, chunk_size: shape.chunk_size, ..PrepConfig::default() };
    let t = Instant::now();
    let packed = prepare(files, &prep);
    let prepare_s = t.elapsed().as_secs_f64();
    Inputs {
        root: shape.kind.name(),
        paths,
        data,
        prep,
        packed,
        cache_bytes: shape.cache_bytes,
        datagen_s,
        prepare_s,
    }
}

/// Rank 1's handles, passed to the driver on rank 0 so that it can read
/// both ranks' counters at the edges of the timed phase.
struct Peer {
    state: Arc<NodeState>,
    trace: Option<Arc<TraceRecorder>>,
}

/// Start the 2-rank cluster and run `drive` on rank 0. The whole cluster
/// lives on one CPU (see [`OneCpu`]); input generation and packing before
/// it do not.
fn run_cluster<R: Send>(
    cfg: ClusterConfig,
    partitions: Vec<Vec<u8>>,
    drive: impl Fn(&FsClient, &Peer) -> R + Send + Sync,
) -> R {
    let _pin = OneCpu::pin();
    let slot: Mutex<Option<Peer>> = Mutex::new(None);
    let mut out = FanStore::run(cfg, partitions, |fs| {
        if fs.rank() != 0 {
            let peer = Peer { state: Arc::clone(fs.state()), trace: fs.trace().cloned() };
            *slot.lock().expect("peer slot") = Some(peer);
            return None;
        }
        let peer = loop {
            if let Some(p) = slot.lock().expect("peer slot").take() {
                break p;
            }
            std::thread::yield_now();
        };
        Some(drive(fs, &peer))
    });
    out.swap_remove(0).expect("rank 0 drove the workload")
}

fn cluster_cfg(cache_bytes: usize, traced: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: 2,
        cache: CacheConfig { capacity: cache_bytes, ..CacheConfig::default() },
        trace_ring: if traced { 1 << 16 } else { 0 },
        ..ClusterConfig::default()
    }
}

/// Counters of both ranks at one instant.
#[derive(Clone, Default)]
pub struct Counts {
    pub r0: Snapshot,
    pub r1: Snapshot,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Syncs seen by the two WAL media (0 without a WAL).
    pub media_syncs: u64,
    /// Rank 0's service channel: messages sent, bytes sent, bytes
    /// received. Every message it sends is a request that gets a reply.
    pub fabric: [u64; 3],
}

impl Counts {
    /// `before` says which edge of the timed phase this is. The client
    /// refreshes its `fabric.*` gauges from the channel's traffic
    /// counters at the end of a batched fetch, so a one-file batch of a
    /// local path brings them up to date; it runs outside the window the
    /// two snapshots enclose, so that it changes none of the counts.
    fn take(
        fs: &FsClient,
        peer: &Peer,
        sync_path: &str,
        media: &[Arc<RamMedia>],
        before: bool,
    ) -> Counts {
        let fabric = || {
            for r in fs.read_many(&[sync_path.to_string()]) {
                fs.recycle(r.expect("gauge-sync read"));
            }
            ["fabric.msgs_sent", "fabric.bytes_sent", "fabric.bytes_received"]
                .map(|name| fs.state().metrics.gauge(name).get())
        };
        let early = before.then(fabric);
        let ord = std::sync::atomic::Ordering::Relaxed;
        let cache = fs.state().cache.stats();
        let pool = fs.state().pool.stats();
        let mut counts = Counts {
            r0: fs.state().metrics.snapshot(),
            r1: peer.state.metrics.snapshot(),
            cache_hits: cache.hits.load(ord),
            cache_misses: cache.misses.load(ord),
            cache_evictions: cache.evictions.load(ord),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            media_syncs: media.iter().map(|m| m.syncs()).sum(),
            fabric: [0; 3],
        };
        counts.fabric = early.unwrap_or_else(fabric);
        counts
    }

    fn since(&self, before: &Counts) -> Counts {
        Counts {
            r0: self.r0.delta(&before.r0),
            r1: self.r1.delta(&before.r1),
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            media_syncs: self.media_syncs - before.media_syncs,
            fabric: [0, 1, 2].map(|i| self.fabric[i] - before.fabric[i]),
        }
    }
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Start of set-up to first timed step.
    pub total_s: f64,
    pub datagen_s: f64,
    pub prepare_s: f64,
    pub enumerate_s: f64,
    pub files: usize,
}

/// What one cluster life measured.
#[derive(Default)]
pub struct Phase {
    pub setup: Setup,
    pub wall_s: f64,
    /// Resident set (`VmRSS`, MB) sampled as each fifth of the timed phase
    /// went by.
    pub rss_mb: Vec<f64>,
    /// Files, ranges or writes delivered in the timed phase.
    pub ops: u64,
    /// User bytes delivered or accepted in the timed phase.
    pub user_bytes: u64,
    pub steps: Vec<Step>,
    /// Ops attempted and failed, timed phase and verification passes
    /// together. A failure is an error, a wrong length or a wrong byte.
    pub attempted: u64,
    pub failed: u64,
    /// Bytes stored and user bytes they hold, for
    /// `stored_bytes_per_user_byte`.
    pub stored_bytes: u64,
    pub stored_for_bytes: u64,
    /// Counter changes over the timed phase.
    pub counts: Counts,
    pub spans: Option<Spans>,
    /// The program's own spans of both ranks (traced phases only).
    pub program_spans: Vec<SpanEvent>,
    /// The metric registries of rank 0 and rank 1, whose histograms a
    /// traced run reads medians from.
    pub registries: Option<[Arc<MetricsRegistry>; 2]>,
    /// A sample of the generated inputs (at most 4 MiB) and how the
    /// workload packs them, for the layer probes.
    pub probe_files: Vec<(String, Vec<u8>)>,
    pub prep: PrepConfig,
    /// Set-up and untimed measurements a layer metric is read from.
    pub replay_ms: f64,
    pub ckpt_recover_ms: f64,
    pub ckpt_put_ms: Vec<f64>,
    pub ckpt_raw_bytes: u64,
    pub ckpt_stored_bytes: u64,
}

/// One step of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// How long the trainer waited for it.
    pub us: f64,
    /// When it ended, in seconds since the phase began.
    pub end_s: f64,
    /// Ops and user bytes the phase had delivered by then.
    pub ops: u64,
    pub bytes: u64,
    /// Whether a measuring window may end here: everywhere on the read
    /// workloads; on `durable_writes` only where a compaction has just
    /// run, so that every window holds whole compaction cycles.
    pub cut: bool,
}

/// Steps and time of one timed phase.
struct Meter {
    limit: Limit,
    t0: Instant,
    /// `t0` on the clock the program's spans use.
    t0_us: u64,
    steps: Vec<Step>,
    ops: u64,
    bytes: u64,
    rss_mb: Vec<f64>,
}

/// Memory samples in one timed phase.
const RSS_SAMPLES: usize = 5;

impl Meter {
    fn start(limit: Limit) -> Meter {
        let steps = Vec::with_capacity(1 << 16);
        let (t0, t0_us) = (Instant::now(), now_us());
        Meter { limit, t0, t0_us, steps, ops: 0, bytes: 0, rss_mb: Vec::new() }
    }

    /// Share of the limit used up.
    fn progress(&self) -> f64 {
        match self.limit {
            Limit::Seconds(s) => self.t0.elapsed().as_secs_f64() / s,
            Limit::Steps(n) => self.steps.len() as f64 / n as f64,
            Limit::SetupOnly => 1.0,
        }
    }

    /// Count one delivered op of `bytes` user bytes.
    fn op(&mut self, bytes: usize) {
        self.ops += 1;
        self.bytes += bytes as u64;
    }

    /// The step that began at `began` ends now.
    fn step(&mut self, began: Instant) -> Instant {
        let now = Instant::now();
        self.step_took((now - began).as_secs_f64() * 1e6, now, true);
        now
    }

    /// A step that took `us` and whose share of the phase ends at `now`.
    fn step_took(&mut self, us: f64, now: Instant, cut: bool) {
        let end_s = (now - self.t0).as_secs_f64();
        self.steps.push(Step { us, end_s, ops: self.ops, bytes: self.bytes, cut });
        // Memory is read where a window may end: on `durable_writes` just
        // after a compaction, not at a random point of its transient.
        let due = (self.rss_mb.len() + 1) as f64 / RSS_SAMPLES as f64;
        if cut && self.rss_mb.len() < RSS_SAMPLES && self.progress() >= due {
            self.rss_mb.push(rss_mb());
        }
    }

    fn done(&self, spans: &Option<Spans>) -> bool {
        if spans.as_ref().is_some_and(Spans::full) {
            return true;
        }
        self.progress() >= 1.0
    }
}

fn enter(spans: &mut Option<Spans>, name: &'static str) -> u32 {
    spans.as_mut().map_or(0, |s| s.enter(name))
}

fn exit(spans: &mut Option<Spans>, id: u32) {
    if let Some(s) = spans {
        s.exit(id);
    }
}

/// Evaluate `$call` inside a span called `$name` when tracing, bare
/// otherwise. `$call` must not leave the enclosing function (`?`).
macro_rules! span {
    ($spans:expr, $name:expr, $call:expr) => {{
        let id = enter($spans, $name);
        let out = $call;
        exit($spans, id);
        out
    }};
}

fn open_step(spans: &mut Option<Spans>) -> u32 {
    enter(spans, "step")
}

fn close_step(spans: &mut Option<Spans>, id: u32) {
    exit(spans, id);
    if let Some(s) = spans {
        s.step += 1;
    }
}

/// Tally of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one op; `ok` is false for an error, a wrong length or a
    /// wrong byte.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("fsbench: FAILED op: {}", what());
            }
        }
    }
}

/// Bytes of every 64th op, on a seeded choice, are compared inside the
/// timed loop; lengths are checked on every op.
fn sampled(rng: &mut Rng) -> bool {
    rng.next() & 63 == 0
}

pub fn run_phase(w: Workload, seed: u64, limit: Limit, traced: bool, quick: bool) -> Phase {
    match w {
        Workload::DurableWrites => durable_writes(seed, limit, traced, quick),
        _ => read_phase(w, seed, limit, traced, quick),
    }
}

fn read_phase(w: Workload, seed: u64, limit: Limit, traced: bool, quick: bool) -> Phase {
    let t_setup = Instant::now();
    let inputs = build_inputs(w, seed, quick);
    let cfg = cluster_cfg(inputs.cache_bytes, traced);
    let partitions = inputs.packed.partitions.clone();
    let mut phase = run_cluster(cfg, partitions, |fs, peer| {
        let mut tally = Tally::default();
        let t = Instant::now();
        let mut listed = fs.enumerate(inputs.root).unwrap_or_default();
        let enumerate_s = t.elapsed().as_secs_f64();
        let mut expect = inputs.paths.clone();
        expect.sort();
        listed.sort();
        tally.check(listed == expect, || format!("enumerate found {} files", listed.len()));
        if w == Workload::WarmEpoch {
            // The warm-up epoch fills the cache and is the untimed pass
            // that compares every file.
            verify_whole(fs, &inputs, &mut tally);
        }
        let setup = Setup {
            total_s: t_setup.elapsed().as_secs_f64(),
            datagen_s: inputs.datagen_s,
            prepare_s: inputs.prepare_s,
            enumerate_s,
            files: inputs.paths.len(),
        };
        let mut phase = Phase { setup, ..Phase::default() };
        if limit != Limit::SetupOnly {
            let before = Counts::take(fs, peer, &inputs.paths[0], &[], true);
            let mut spans = traced.then(Spans::new);
            let mut meter = Meter::start(limit);
            let seed = derive(seed, 2);
            type Drive = fn(&FsClient, &Inputs, u64, &mut Meter, &mut Option<Spans>, &mut Tally);
            let drive: Drive = match w {
                Workload::ColdEpoch => drive_prefetch,
                Workload::RangeReads => drive_ranges,
                _ => drive_posix,
            };
            drive(fs, &inputs, seed, &mut meter, &mut spans, &mut tally);
            phase.wall_s = meter.t0.elapsed().as_secs_f64();
            phase.counts = Counts::take(fs, peer, &inputs.paths[0], &[], false).since(&before);
            phase.program_spans = program_spans(fs, peer, meter.t0_us);
            (phase.ops, phase.user_bytes, phase.steps) = (meter.ops, meter.bytes, meter.steps);
            phase.rss_mb = meter.rss_mb;
            if phase.rss_mb.is_empty() {
                // A phase too short for a sample where one may be taken.
                phase.rss_mb.push(rss_mb());
            }
            phase.spans = spans;
            if w != Workload::WarmEpoch {
                verify_whole(fs, &inputs, &mut tally);
            }
            if w == Workload::RangeReads {
                verify_ranges(fs, &inputs, seed, &mut tally);
            }
        }
        (phase.attempted, phase.failed) = (tally.attempted, tally.failed);
        phase.registries = Some([Arc::clone(&fs.state().metrics), Arc::clone(&peer.state.metrics)]);
        phase
    });
    phase.stored_bytes = inputs.packed.packed_bytes as u64;
    phase.stored_for_bytes = inputs.packed.input_bytes as u64;
    let mut budget = PROBE_SAMPLE_BYTES;
    phase.probe_files = (inputs.paths.into_iter().zip(inputs.data))
        .take_while(|(_, d)| {
            let room = budget > 0;
            budget = budget.saturating_sub(d.len());
            room
        })
        .collect();
    phase.prep = inputs.prep;
    phase
}

/// Input bytes the layer probes work on.
const PROBE_SAMPLE_BYTES: usize = 4 << 20;

/// The program's spans of both ranks that started in the timed phase.
/// Each rank keeps its last 65,536; set-up traffic still in rank 1's
/// ring would otherwise be attributed as requests without a client.
fn program_spans(fs: &FsClient, peer: &Peer, since_us: u64) -> Vec<SpanEvent> {
    let mut out = fs.trace().map(|t| t.spans()).unwrap_or_default();
    out.extend(peer.trace.as_ref().map(|t| t.spans()).unwrap_or_default());
    out.retain(|s| s.start_us >= since_us);
    out
}

/// Untimed pass: every file, read whole, equals the generator's bytes.
fn verify_whole(fs: &FsClient, inputs: &Inputs, tally: &mut Tally) {
    for (path, want) in inputs.paths.iter().zip(&inputs.data) {
        let got = fs.read_whole(path);
        tally.check(got.as_ref().is_ok_and(|g| g == want), || format!("read_whole {path}"));
        if let Ok(buf) = got {
            fs.recycle(buf);
        }
    }
}

/// One seeded window of every file, after the run.
fn verify_ranges(fs: &FsClient, inputs: &Inputs, seed: u64, tally: &mut Tally) {
    let mut rng = Rng::new(derive(seed, 9));
    for (path, want) in inputs.paths.iter().zip(&inputs.data) {
        let (a, b) = window(&mut rng, want.len());
        let got = fs.read_range(path, a as u64, b as u64);
        tally.check(got.as_ref().is_ok_and(|g| g[..] == want[a..b]), || {
            format!("read_range {path} [{a}, {b})")
        });
    }
}

fn window(rng: &mut Rng, file_len: usize) -> (usize, usize) {
    let len = ((file_len as f64 * RANGE_SHARE) as usize).max(1);
    let start = rng.below((file_len - len + 1) as u64) as usize;
    (start, start + len)
}

/// A fresh shuffle of `0..n`.
struct EpochOrder {
    order: Vec<u32>,
    pos: usize,
    rng: Rng,
}

impl EpochOrder {
    fn new(n: usize, seed: u64) -> EpochOrder {
        EpochOrder { order: (0..n as u32).collect(), pos: n, rng: Rng::new(seed) }
    }

    fn reshuffle(&mut self) {
        self.rng.shuffle(&mut self.order);
        self.pos = 0;
    }

    fn next(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.reshuffle();
        }
        self.pos += 1;
        self.order[self.pos - 1] as usize
    }
}

/// Span names by where the compressed bytes live, so that a traced run
/// separates local from remote calls.
fn by_owner(
    fs: &FsClient,
    inputs: &Inputs,
    local: &'static str,
    remote: &'static str,
) -> Vec<&'static str> {
    inputs
        .paths
        .iter()
        .map(|p| if fs.state().owner_of(p) == Some(fs.rank()) { local } else { remote })
        .collect()
}

/// `warm_epoch` and `small_files`: shuffled epochs of POSIX
/// `open`/`read`/`close` with a 64 KiB buffer, 32 files to a step.
fn drive_posix(
    fs: &FsClient,
    inputs: &Inputs,
    seed: u64,
    meter: &mut Meter,
    spans: &mut Option<Spans>,
    tally: &mut Tally,
) {
    let mut order = EpochOrder::new(inputs.paths.len(), seed);
    let mut sample = Rng::new(derive(seed, 3));
    let open_names = by_owner(fs, inputs, "client.open.local", "client.open.remote");
    let mut buf = vec![0u8; 64 << 10];
    let mut got = Vec::new();
    while !meter.done(spans) {
        let t = Instant::now();
        let step = open_step(spans);
        for _ in 0..STEP_OPS {
            let i = order.next();
            let (path, want) = (&inputs.paths[i], &inputs.data[i]);
            let compare = sampled(&mut sample);
            let op = enter(spans, "op");
            let res: Result<usize, FsError> = (|| {
                let fd = span!(spans, open_names[i], fs.open(path))?;
                let mut total = 0usize;
                got.clear();
                loop {
                    let n = span!(spans, "client.read", fs.read(fd, &mut buf))?;
                    if n == 0 {
                        break;
                    }
                    total += n;
                    if compare {
                        got.extend_from_slice(&buf[..n]);
                    }
                }
                span!(spans, "client.close", fs.close(fd))?;
                Ok(total)
            })();
            exit(spans, op);
            let ok = res.as_ref().is_ok_and(|n| *n == want.len()) && (!compare || got == *want);
            tally.check(ok, || format!("open/read/close {path}: {res:?}"));
            meter.op(res.unwrap_or(0));
        }
        close_step(spans, step);
        meter.step(t);
    }
}

/// `cold_epoch`: shuffled epochs through the prefetch pipeline. A step is
/// the gap between two batch deliveries to the consumer: the time the
/// trainer waits for its next batch. The limit is checked between epochs.
fn drive_prefetch(
    fs: &FsClient,
    inputs: &Inputs,
    seed: u64,
    meter: &mut Meter,
    spans: &mut Option<Spans>,
    tally: &mut Tally,
) {
    let cfg = PrefetchConfig {
        io_threads: 1,
        queue_batches: 2,
        batch_size: STEP_OPS,
        rpc_batch: 0,
        tenant: 0,
    };
    let mut order = EpochOrder::new(inputs.paths.len(), seed);
    let mut sample = Rng::new(derive(seed, 3));
    let batches = inputs.paths.len().div_ceil(STEP_OPS);
    while !meter.done(spans) {
        order.reshuffle();
        let epoch: Vec<String> =
            order.order.iter().map(|&i| inputs.paths[i as usize].clone()).collect();
        let mut last = Instant::now();
        let mut step = open_step(spans);
        let mut delivered = 0usize;
        let res = prefetched_epoch(fs, &epoch, &cfg, |batch| {
            for f in batch {
                meter.op(f.data.len());
            }
            last = meter.step(last);
            close_step(spans, step);
            delivered += 1;
            if delivered < batches {
                step = open_step(spans);
            }
            span!(spans, "consume", {
                for f in batch {
                    let want = &inputs.data[order.order[f.index] as usize];
                    let ok =
                        f.data.len() == want.len() && (!sampled(&mut sample) || f.data == *want);
                    tally.check(ok, || format!("prefetched {}", f.path));
                }
            });
        });
        if delivered < batches {
            close_step(spans, step);
        }
        // A file the pipeline failed on ends the epoch early: every file
        // it did not deliver counts as failed.
        let missing =
            (inputs.paths.len() as u64).saturating_sub(delivered as u64 * STEP_OPS as u64);
        if res.is_err() || missing > 0 {
            eprintln!("fsbench: prefetched epoch ended early: {res:?}");
            (tally.attempted, tally.failed) = (tally.attempted + missing, tally.failed + missing);
            break;
        }
    }
}

/// `range_reads`: a 5 % window at a uniform offset in a uniform file,
/// 32 ranges to a step.
fn drive_ranges(
    fs: &FsClient,
    inputs: &Inputs,
    seed: u64,
    meter: &mut Meter,
    spans: &mut Option<Spans>,
    tally: &mut Tally,
) {
    let mut rng = Rng::new(seed);
    let mut sample = Rng::new(derive(seed, 3));
    let names = by_owner(fs, inputs, "client.read_range.local", "client.read_range.remote");
    while !meter.done(spans) {
        let t = Instant::now();
        let step = open_step(spans);
        for _ in 0..STEP_OPS {
            let i = rng.below(inputs.paths.len() as u64) as usize;
            let (path, want) = (&inputs.paths[i], &inputs.data[i]);
            let (a, b) = window(&mut rng, want.len());
            let got = span!(spans, names[i], fs.read_range(path, a as u64, b as u64));
            let ok = got
                .as_ref()
                .is_ok_and(|g| g.len() == b - a && (!sampled(&mut sample) || g[..] == want[a..b]));
            tally.check(ok, || format!("read_range {path} [{a}, {b})"));
            meter.op(got.map_or(0, |g| g.len()));
        }
        close_step(spans, step);
        meter.step(t);
    }
}

/// Sizes of `durable_writes`.
struct WriteShape {
    /// Objects cluster A writes before the restart.
    seed_objects: u64,
    value_bytes: usize,
    /// A key is unlinked this many writes after it was written, so this
    /// many keys are live at any time.
    unlink_lag: u64,
    /// Writes between two checkpoints.
    ckpt_every: u64,
    ckpt_bytes: usize,
}

fn write_shape(quick: bool) -> WriteShape {
    if quick {
        WriteShape {
            seed_objects: 32,
            value_bytes: 16 << 10,
            unlink_lag: 64,
            ckpt_every: 50,
            ckpt_bytes: 64 << 10,
        }
    } else {
        WriteShape {
            seed_objects: 256,
            value_bytes: 16 << 10,
            unlink_lag: 512,
            ckpt_every: 250,
            ckpt_bytes: 256 << 10,
        }
    }
}

/// The modelled fsync: the only number in the benchmark that is not
/// measured. `RamMedia` spins this long per sync.
pub const SYNC_COST: Duration = Duration::from_micros(100);

pub fn wal_config() -> WalConfig {
    WalConfig { commit_every: 16, sync_cost: SYNC_COST, ..WalConfig::default() }
}

fn ckpt_config() -> CkptConfig {
    CkptConfig { replicas: 1, keep_last: 2, ..CkptConfig::default() }
}

/// Values are seeded slices of a pool of generated EM tiles, so they
/// compress the way that dataset does.
struct ValuePool {
    pool: Vec<u8>,
    seed: u64,
    value_bytes: usize,
}

impl ValuePool {
    fn new(seed: u64, shape: &WriteShape) -> ValuePool {
        let mut spec = DatasetSpec::scaled(DatasetKind::EmTif, 1, derive(seed, 1));
        spec.file_size = 4 << 20;
        ValuePool { pool: spec.generate(0), seed: derive(seed, 4), value_bytes: shape.value_bytes }
    }

    fn slice(&self, stream: u64, i: u64, len: usize) -> &[u8] {
        let off = derive(self.seed ^ stream, i) % (self.pool.len() - len) as u64;
        &self.pool[off as usize..off as usize + len]
    }

    fn seed_value(&self, i: u64) -> &[u8] {
        self.slice(0x5EED, i, self.value_bytes)
    }

    fn value(&self, i: u64) -> &[u8] {
        self.slice(0xDA7A, i, self.value_bytes)
    }

    /// Generation `g` differs from `g - 1` in one seeded 64 KiB region,
    /// like consecutive checkpoints of one model.
    fn mutate_checkpoint(&self, payload: &mut [u8], g: u64) {
        let len = (64 << 10).min(payload.len());
        let at = derive(self.seed ^ 0xC4A7, g) % (payload.len() - len + 1) as u64;
        payload[at as usize..at as usize + len].copy_from_slice(self.slice(0xC4A8, g, len));
    }
}

fn seed_key(i: u64) -> String {
    format!("seed/o{i:06}.bin")
}

fn write_key(i: u64) -> String {
    format!("out/w{i:08}.bin")
}

/// What the restart check must find: the stored objects of the newest
/// checkpoint, byte for byte.
struct CkptObjects {
    generation: u64,
    objects: Vec<(String, Vec<u8>)>,
}

/// Read generation `g`'s manifest and segments as stored.
fn ckpt_objects(fs: &FsClient, store: &CheckpointStore, g: u64) -> Result<CkptObjects, FsError> {
    let manifest = store.manifest(g)?;
    let mut paths = vec![store.manifest_path(g)];
    paths.extend(manifest.segments.iter().map(|s| format!("{}/{}", store.gen_dir(g), s.name)));
    let objects = paths
        .into_iter()
        .map(|p| fs.read_whole(&p).map(|bytes| (p, bytes)))
        .collect::<Result<_, _>>()?;
    Ok(CkptObjects { generation: g, objects })
}

/// `durable_writes`: three cluster lives on one pair of WAL media.
///
/// A (set-up) writes the seed objects and checkpoint generation 1. B
/// restarts on the media, checks them, then runs the timed phase: a
/// `write_whole` of a fresh key per step, an `unlink` of the key written
/// `unlink_lag` writes earlier, and every `ckpt_every` writes a
/// checkpoint `put` and `gc`. C restarts again and is the durability
/// oracle: every acknowledged write that was not unlinked reads back
/// byte-exact, every unlinked key is `NotFound`, and the newest
/// checkpoint's stored objects are byte-identical to what B read back
/// after decoding them byte-exact against the generator.
///
/// `CheckpointStore::recover` cannot be that oracle: after a restart the
/// metadata table is not rebuilt from the WAL, so the lineage directory
/// does not list and `recover` reports a fresh start although every
/// object is readable by path. The oracle uses `verify` and the paths.
fn durable_writes(seed: u64, limit: Limit, traced: bool, quick: bool) -> Phase {
    let t_setup = Instant::now();
    let shape = write_shape(quick);
    let t = Instant::now();
    let pool = ValuePool::new(seed, &shape);
    let datagen_s = t.elapsed().as_secs_f64();
    let media: Vec<Arc<RamMedia>> = (0..2).map(|_| RamMedia::new(SYNC_COST)).collect();
    let cfg = |traced: bool| ClusterConfig {
        wal: Some(wal_config()),
        wal_media: Some(media.clone()),
        ..cluster_cfg(CacheConfig::default().capacity, traced)
    };
    let no_partitions =
        || prepare(Vec::new(), &PrepConfig { partitions: 2, ..PrepConfig::default() }).partitions;
    let commit =
        |fs: &FsClient| fs.state().wal.as_ref().expect("wal attached").commit().map(|_| ());
    let payload = pool.slice(0xC4A6, 0, shape.ckpt_bytes).to_vec();

    // Life A: the state the timed life restarts on.
    let seeded: Result<(), FsError> = run_cluster(cfg(false), no_partitions(), |fs, _| {
        for i in 0..shape.seed_objects {
            fs.write_whole(&seed_key(i), pool.seed_value(i))?;
        }
        CheckpointStore::new(fs, ckpt_config()).put(1, &payload)?;
        commit(fs)
    });

    // Life B: restart, check, then the timed phase.
    let (mut phase, live, newest, payload) = run_cluster(
        cfg(traced),
        no_partitions(),
        |fs, peer| {
            let mut tally = Tally::default();
            tally.check(seeded.is_ok(), || format!("seeding before the restart: {seeded:?}"));
            for i in 0..shape.seed_objects {
                let got = fs.read_whole(&seed_key(i));
                tally.check(got.is_ok_and(|g| g == pool.seed_value(i)), || {
                    format!("seed object {i} after the restart")
                });
            }
            let store = CheckpointStore::new(fs, ckpt_config());
            let seen = store.verify(1);
            tally.check(seen.is_ok_and(|v| v.raw_bytes == payload.len() as u64), || {
                "checkpoint generation 1 after the restart".to_string()
            });
            let setup = Setup {
                total_s: t_setup.elapsed().as_secs_f64(),
                datagen_s,
                files: shape.seed_objects as usize,
                ..Setup::default()
            };
            let mut phase = Phase { setup, ..Phase::default() };
            let mut payload = payload.clone();
            let mut live = 0..0;
            let mut newest = None;
            if limit != Limit::SetupOnly {
                let before = Counts::take(fs, peer, &seed_key(0), &media, true);
                let mut spans = traced.then(Spans::new);
                let mut meter = Meter::start(limit);
                let mut generation = 1u64;
                let mut written = 0u64;
                let compactions = fs.state().metrics.counter("wal.compact.runs");
                let mut compacted = compactions.get();
                loop {
                    let (i, key) = (written, write_key(written));
                    let t = Instant::now();
                    let step = open_step(&mut spans);
                    let res = span!(
                        &mut spans,
                        "client.write_whole",
                        fs.write_whole(&key, pool.value(i))
                    );
                    close_step(&mut spans, step);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    meter.op(shape.value_bytes);
                    tally.check(res.is_ok(), || format!("write_whole {key}: {res:?}"));
                    written += 1;
                    if written > shape.unlink_lag {
                        let old = write_key(written - 1 - shape.unlink_lag);
                        let res = span!(&mut spans, "client.unlink", fs.unlink(&old));
                        tally.check(res.is_ok(), || format!("unlink {old}: {res:?}"));
                    }
                    if written.is_multiple_of(shape.ckpt_every) {
                        generation += 1;
                        pool.mutate_checkpoint(&mut payload, generation);
                        let t = Instant::now();
                        let put = span!(&mut spans, "ckpt.put", store.put(generation, &payload));
                        phase.ckpt_put_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        let gc = span!(&mut spans, "ckpt.gc", store.gc());
                        tally.check(put.is_ok() && gc.is_ok(), || {
                            format!("checkpoint {generation}: {put:?} {gc:?}")
                        });
                        // Accepted user bytes that are not an op of their own.
                        meter.bytes += payload.len() as u64;
                    }
                    // A timed run ends, and a window may end, only where a
                    // compaction has just run: the work comes in cycles of one
                    // compaction per four flushes, and a run or a window that
                    // held a cycle and a half would report a mixture.
                    let cycle_ended = compactions.get() != compacted;
                    compacted = compactions.get();
                    meter.step_took(us, Instant::now(), cycle_ended);
                    let whole_cycles = cycle_ended || matches!(limit, Limit::Steps(_));
                    if (whole_cycles && meter.done(&spans))
                        || spans.as_ref().is_some_and(Spans::full)
                    {
                        break;
                    }
                }
                // The application's fsync before exit: group commit has
                // acknowledged up to fifteen writes that are not yet durable.
                let synced = commit(fs);
                tally.check(synced.is_ok(), || format!("final commit: {synced:?}"));
                phase.wall_s = meter.t0.elapsed().as_secs_f64();
                phase.counts = Counts::take(fs, peer, &seed_key(0), &media, false).since(&before);
                phase.program_spans = program_spans(fs, peer, meter.t0_us);
                (phase.ops, phase.user_bytes, phase.steps) = (meter.ops, meter.bytes, meter.steps);
                phase.rss_mb = meter.rss_mb;
                if phase.rss_mb.is_empty() {
                    // A phase too short for a sample where one may be taken.
                    phase.rss_mb.push(rss_mb());
                }
                phase.spans = spans;
                live = written.saturating_sub(shape.unlink_lag)..written;

                // Before the restart: the newest checkpoint decodes to the
                // generator's bytes, and its stored objects are kept for the
                // comparison after it.
                let t = Instant::now();
                let recovered = CheckpointStore::new(fs, ckpt_config()).recover();
                phase.ckpt_recover_ms = t.elapsed().as_secs_f64() * 1e3;
                let exact = matches!(&recovered, Ok(Recovery::Loaded { generation: g, payload: p, .. })
                if *g == generation && *p == payload);
                tally.check(exact || generation == 1, || {
                    format!("checkpoint {generation} does not decode to the bytes put")
                });
                if generation > 1 {
                    let kept = ckpt_objects(fs, &store, generation);
                    tally.check(kept.is_ok(), || {
                        format!("reading checkpoint {generation} as stored")
                    });
                    newest = kept.ok();
                }
            }
            (phase.attempted, phase.failed) = (tally.attempted, tally.failed);
            phase.registries =
                Some([Arc::clone(&fs.state().metrics), Arc::clone(&peer.state.metrics)]);
            (phase, live, newest, payload)
        },
    );

    // Life C: the durability oracle.
    if limit != Limit::SetupOnly {
        let checked = run_cluster(cfg(false), no_partitions(), |fs, _| {
            let mut tally = Tally::default();
            for i in 0..live.end {
                let key = write_key(i);
                let got = fs.read_whole(&key);
                if live.contains(&i) {
                    tally.check(got.is_ok_and(|g| g == pool.value(i)), || {
                        format!("{key} lost or changed by the restart")
                    });
                } else {
                    tally.check(matches!(got, Err(FsError::NotFound(_))), || {
                        format!("unlinked {key} came back after the restart")
                    });
                }
            }
            if let Some(kept) = &newest {
                let store = CheckpointStore::new(fs, ckpt_config());
                let seen = store.verify(kept.generation);
                tally.check(seen.is_ok_and(|v| v.raw_bytes == payload.len() as u64), || {
                    format!("checkpoint {} fails verification after the restart", kept.generation)
                });
                for (path, want) in &kept.objects {
                    tally.check(fs.read_whole(path).is_ok_and(|g| g == *want), || {
                        format!("{path} lost or changed by the restart")
                    });
                }
            }
            tally
        });
        phase.attempted += checked.attempted;
        phase.failed += checked.failed;
        // What a restart pays to replay rank 0's medium as the run left
        // it, measured alone.
        let t = Instant::now();
        let opened = WalStore::open(
            Arc::clone(&media[0]) as Arc<dyn WalMedia>,
            wal_config(),
            &MetricsRegistry::new(),
        );
        phase.replay_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(opened);
    }

    // Bytes written to the two media per user byte accepted. Checkpoint
    // segments reach the media through the same log, so `wal.append.bytes`
    // already holds them.
    let c = &phase.counts;
    phase.stored_bytes = ["wal.append.bytes", "wal.flush.bytes", "wal.compact.out_bytes"]
        .iter()
        .map(|name| c.r0.counter(name) + c.r1.counter(name))
        .sum();
    phase.stored_for_bytes = phase.user_bytes;
    phase.ckpt_raw_bytes = c.r0.counter("ckpt.put.bytes_raw");
    phase.ckpt_stored_bytes = c.r0.counter("ckpt.put.bytes_stored");
    let sample = (PROBE_SAMPLE_BYTES / shape.value_bytes) as u64;
    phase.probe_files =
        (0..sample).map(|i| (format!("probe/v{i:04}"), pool.value(i).to_vec())).collect();
    phase.prep = PrepConfig { partitions: 2, ..PrepConfig::default() };
    phase
}
