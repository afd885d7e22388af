//! # fanstore-cli
//!
//! The one `fanstore` binary: [`run`] dispatches over [`COMMANDS`], the
//! only list of subcommands (the usage text is generated from it).
//!
//! * `fanstore prep` — walk a directory, compress and pack its files into
//!   partition files (the paper's §V-B data-preparation tool).
//! * `fanstore inspect` — list the contents of partition files and
//!   verify that every entry decompresses cleanly.
//! * the rest — observability front end over a small in-process cluster
//!   running a demo workload. `metrics` merges every rank's registry into
//!   one cluster-wide view (counters, gauges, latency histograms with
//!   p50/p90/p99/max; `--json true` for the snapshot, `--tenant N` for one
//!   tenant's QoS/SLO series). `trace dump` prints each rank's I/O event
//!   ring, then the span timelines grouped per request, so a remote GET
//!   reads client -> fabric -> daemon though the stages were recorded on
//!   different ranks. `attrib` joins the span trees into the per-stage
//!   bottleneck table; `slo` prints the per-tenant burn-rate table;
//!   `ckpt` and `wal` exercise the durable stores and inspect what they
//!   left; `range` and `tier` walk the progressive/partial read path
//!   (DESIGN.md §13).
//!
//! The argument parsing is deliberately dependency-free (`--flag value`
//! pairs), mirroring the original tool's minimal interface: data path,
//! partition count, compression algorithm.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fanstore::attrib::{aggregate, attribute, bottleneck_table, SEGMENTS};
use fanstore::ckpt::{CheckpointStore, CkptConfig};
use fanstore::cluster::{ClusterConfig, FanStore};
use fanstore::pack::parse_partition;
use fanstore::prep::{prepare, PrepConfig};
use fanstore::qos::{QosPolicy, SloObjective, TenantQuota};
use fanstore::trace::SpanEvent;
use fanstore_compress::registry::{create, parse_name};
use fanstore_datagen::{DatasetKind, DatasetSpec};
use mpi_sim::FaultPlan;

/// Parsed `--key value` style arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Parse from an iterator of raw arguments (without argv[0]).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = iter.next().ok_or_else(|| format!("missing value for --{key}"))?;
                args.flags.push((key.to_string(), value));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// Value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Value of `--key` parsed as `usize`.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: not a number: {v}")),
        }
    }

    /// Value of `--key`, which the subcommand cannot run without.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}\n{}", usage()))
    }

    /// `--key true|false`: anything but `false` switches it on.
    pub fn get_bool(&self, key: &str, default: bool) -> bool {
        self.get(key).map_or(default, |v| v != "false")
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Exactly `N` positional words after the subcommand's name
    /// (`ckpt ls` has one, `metrics` none); any other count is a usage
    /// error.
    fn words<const N: usize>(&self) -> Result<[&str; N], String> {
        let rest: Vec<&str> = self.positional.iter().skip(1).map(String::as_str).collect();
        rest.try_into().map_err(|_| usage())
    }

    /// `--nodes` and `--files`, the size of the demo cluster and dataset.
    fn cluster(&self) -> Result<(usize, usize), String> {
        Ok((self.get_usize("nodes", 4)?, self.get_usize("files", 24)?))
    }

    /// A subcommand that is one demo over `--nodes` ranks and `--files`
    /// files and takes no further word.
    fn demo(&self, demo: fn(usize, usize) -> Result<String, String>) -> Result<String, String> {
        let [] = self.words()?;
        let (nodes, files) = self.cluster()?;
        demo(nodes, files)
    }
}

/// One subcommand: its name, its arguments as the usage text shows them,
/// and the code that runs it.
pub type Command = (&'static str, &'static str, fn(&Args) -> Result<String, String>);

/// Every `fanstore` subcommand. [`run`] dispatches over this list and
/// [`usage`] prints it; there is no other.
pub const COMMANDS: &[Command] = &[
    ("prep", "--input <dir> --output <dir> [--partitions 1] [--codec lzsse8-2]", |a| {
        let [] = a.words()?;
        run_prep(
            Path::new(a.require("input")?),
            Path::new(a.require("output")?),
            a.get_usize("partitions", 1)?,
            a.get("codec").unwrap_or("lzsse8-2"),
        )
    }),
    ("inspect", "<partition.fst>... [--verify true]", |a| {
        let files = &a.positional()[1..];
        if files.is_empty() {
            return Err(usage());
        }
        let verify = a.get_bool("verify", true);
        let mut lines = Vec::new();
        for file in files {
            let listing = run_inspect(Path::new(file), verify);
            lines.extend(listing.map_err(|e| format!("{file}: {e}"))?);
        }
        let report = lines.join("\n");
        // A damaged entry is the tool's finding, and a failure to the shell.
        if report.contains("CORRUPT") {
            Err(report)
        } else {
            Ok(report)
        }
    }),
    ("metrics", "[--nodes 4] [--files 24] [--json false] [--tenant N]", |a| {
        let [] = a.words()?;
        let (nodes, files) = a.cluster()?;
        let tenant = a.get("tenant").map(str::parse).transpose();
        let tenant = tenant.map_err(|_| "--tenant: not a number".to_string())?;
        run_metrics_demo(nodes, files, a.get_bool("json", false), tenant)
    }),
    ("trace", "dump [--nodes 4] [--files 24]", |a| {
        let ["dump"] = a.words()? else { return Err(usage()) };
        let (nodes, files) = a.cluster()?;
        run_trace_dump(nodes, files)
    }),
    ("ckpt", "<ls | verify | gc> [--nodes 4] [--generations 5] [--keep-last 2]", |a| {
        let [sub] = a.words()?;
        let (nodes, _) = a.cluster()?;
        run_ckpt_demo(sub, nodes, a.get_usize("generations", 5)?, a.get_usize("keep-last", 2)?)
    }),
    ("wal", "<ls | verify | compact> [--nodes 4] [--files 24]", |a| {
        let [sub] = a.words()?;
        let (nodes, files) = a.cluster()?;
        run_wal_demo(sub, nodes, files)
    }),
    ("qos", "[--nodes 4] [--files 24]", |a| a.demo(run_qos_demo)),
    ("attrib", "[--nodes 4] [--files 24]", |a| a.demo(run_attrib_demo)),
    ("slo", "[--nodes 4] [--files 24]", |a| a.demo(run_slo_demo)),
    ("range", "[--size 1048576] [--chunk 65536] [--start 100000] [--end start+50000]", |a| {
        let [] = a.words()?;
        let start = a.get_usize("start", 100_000)?;
        run_range_demo(
            a.get_usize("size", 1 << 20)?,
            a.get_usize("chunk", 64 * 1024)?,
            start as u64,
            a.get_usize("end", start + 50_000)? as u64,
        )
    }),
    ("tier", "[--floats 65536] [--tiers 4] [--min-tier 1]", |a| {
        let [] = a.words()?;
        run_tier_demo(
            a.get_usize("floats", 65_536)?,
            a.get_usize("tiers", 4)? as u8,
            a.get_usize("min-tier", 1)? as u8,
        )
    }),
];

/// The usage text: one line per [`COMMANDS`] row.
pub fn usage() -> String {
    let rows: Vec<String> =
        COMMANDS.iter().map(|(name, args, _)| format!("  fanstore {name} {args}")).collect();
    format!("usage:\n{}", rows.join("\n"))
}

/// Run the subcommand `args` names and return what it prints; an unknown
/// or missing one is an `Err` carrying [`usage`]. This is the whole of
/// the binary but for reading `argv` and choosing the exit code.
pub fn run(args: &Args) -> Result<String, String> {
    let name = args.positional().first().ok_or_else(usage)?;
    let (_, _, command) = COMMANDS.iter().find(|(n, ..)| n == name).ok_or_else(usage)?;
    command(args)
}

/// Recursively collect `(relative path, contents)` for every file under
/// `root`, sorted by path (the enumeration step of the prep tool).
pub fn collect_files(root: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.is_file() {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| format!("strip prefix: {e}"))?
                    .to_string_lossy()
                    .replace('\\', "/");
                let data =
                    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
                files.push((rel, data));
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Run the prep workflow: pack `input_dir` into `partitions` partition
/// files under `output_dir` with `codec_name`. Returns a human-readable
/// summary.
pub fn run_prep(
    input_dir: &Path,
    output_dir: &Path,
    partitions: usize,
    codec_name: &str,
) -> Result<String, String> {
    let codec_id = parse_name(codec_name).ok_or_else(|| format!("unknown codec: {codec_name}"))?;
    create(codec_id).map_err(|e| format!("codec {codec_name}: {e}"))?;

    let files = collect_files(input_dir)?;
    if files.is_empty() {
        return Err(format!("no files under {}", input_dir.display()));
    }
    let n_files = files.len();
    let packed = prepare(
        files,
        &PrepConfig {
            partitions,
            codec: codec_id,
            store_if_incompressible: true,
            ..Default::default()
        },
    );

    std::fs::create_dir_all(output_dir)
        .map_err(|e| format!("create {}: {e}", output_dir.display()))?;
    for (i, part) in packed.partitions.iter().enumerate() {
        let path = output_dir.join(format!("part{i:04}.fst"));
        std::fs::write(&path, part).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    Ok(format!(
        "packed {} files ({} bytes) into {} partitions ({} bytes, ratio {:.2}) with {}",
        n_files,
        packed.input_bytes,
        packed.partitions.len(),
        packed.packed_bytes,
        packed.ratio(),
        codec_name,
    ))
}

/// Inspect a partition file: list entries and verify decompression.
/// Returns the report lines.
pub fn run_inspect(partition_file: &Path, verify: bool) -> Result<Vec<String>, String> {
    let bytes = std::fs::read(partition_file)
        .map_err(|e| format!("read {}: {e}", partition_file.display()))?;
    let entries = parse_partition(&bytes).map_err(|e| format!("parse: {e}"))?;
    let mut lines = Vec::with_capacity(entries.len() + 1);
    lines.push(format!(
        "{}: {} entries, {} bytes",
        partition_file.display(),
        entries.len(),
        bytes.len()
    ));
    for e in &entries {
        let status = if verify {
            let codec = create(e.codec).map_err(|err| format!("{}: {err}", e.path))?;
            match fanstore_compress::decompress_to_vec(
                codec.as_ref(),
                &e.data,
                e.stat.size as usize,
            ) {
                Ok(_) => "ok",
                Err(_) => "CORRUPT",
            }
        } else {
            "-"
        };
        lines.push(format!(
            "  {}  codec={}  raw={}  packed={}  verify={}",
            e.path,
            e.codec,
            e.stat.size,
            e.data.len(),
            status
        ));
    }
    Ok(lines)
}

/// Build a small in-memory dataset for the observability demo workload.
fn demo_dataset(files_n: usize) -> Vec<(String, Vec<u8>)> {
    let spec = DatasetSpec::scaled(DatasetKind::LanguageTxt, files_n, 0x0B5E);
    (0..files_n).map(|i| (format!("train/f{i:03}.txt", i = i), spec.generate(i))).collect()
}

/// Run the demo workload on an in-process cluster: every node reads the
/// whole namespace twice — a cold batched pass (`read_many`, one GetMany
/// per owner rank) then a warm single-read pass served from the cache,
/// so latency histograms have real spread and the trace carries both
/// span shapes — and writes one checkpoint. Returns each rank's metrics
/// registry and trace dump.
fn run_demo_cluster(
    nodes: usize,
    files_n: usize,
) -> Result<Vec<(Arc<fanstore::metrics::MetricsRegistry>, String)>, String> {
    if nodes == 0 || files_n == 0 {
        return Err("need at least one node and one file".into());
    }
    let packed =
        prepare(demo_dataset(files_n), &PrepConfig { partitions: nodes, ..Default::default() });
    let cfg = ClusterConfig { nodes, trace_ring: 4096, ..Default::default() };
    let out = FanStore::run(cfg, packed.partitions, |fs| {
        let work = || -> Result<(), fanstore::FsError> {
            let files = fs.enumerate("train")?;
            // Cold pass: batched reads — each chunk is one request id
            // whose client.get_many span joins the per-rank fabric.rpc
            // children in the trace dump.
            for chunk in files.chunks(8) {
                for result in fs.read_many(chunk) {
                    result?;
                }
            }
            // Warm pass: single reads, served from the cache.
            for path in &files {
                fs.read_whole(path)?;
            }
            fs.write_whole(&format!("checkpoints/rank{}/model.h5", fs.rank()), &[0xCE; 512])?;
            Ok(())
        };
        let status = work().map_err(|e| e.to_string());
        let dump = fs.trace().map(|t| t.dump()).unwrap_or_default();
        (status, Arc::clone(&fs.state().metrics), dump)
    });
    let mut per_rank = Vec::with_capacity(out.len());
    for (status, registry, dump) in out {
        status.map_err(|e| format!("demo workload failed: {e}"))?;
        per_rank.push((registry, dump));
    }
    Ok(per_rank)
}

/// One rank's observability output from the attributed demo cluster:
/// its metrics registry and the spans its trace ring recorded.
type RankObservations = (Arc<fanstore::metrics::MetricsRegistry>, Vec<SpanEvent>);

/// Run the attribution/SLO demo workload: like [`run_demo_cluster`] but
/// under a QoS policy (two tenants, each with an SLO) and a modelled
/// 200 µs link delay, so the span trees carry admission, queue, network,
/// serve and decode stages worth attributing. Tenant 2 does the cold
/// batched pass against a tight 300 µs objective (it burns error
/// budget); tenant 1 does the warm single-read pass against a loose
/// 20 ms objective (it stays healthy). Returns each rank's registry and
/// recorded spans.
fn run_attributed_cluster(nodes: usize, files_n: usize) -> Result<Vec<RankObservations>, String> {
    if nodes == 0 || files_n == 0 {
        return Err("need at least one node and one file".into());
    }
    let packed =
        prepare(demo_dataset(files_n), &PrepConfig { partitions: nodes, ..Default::default() });
    let policy = QosPolicy::new()
        .with_quota(1, TenantQuota { weight: 4, ..TenantQuota::default() })
        .with_quota(2, TenantQuota { rate_per_s: 0.0, burst: 100_000, ..TenantQuota::default() })
        .with_slo(1, SloObjective { latency_us: 20_000, target: 0.999 })
        .with_slo(2, SloObjective { latency_us: 300, target: 0.99 });
    let cfg = ClusterConfig {
        nodes,
        trace_ring: 8192,
        qos: Some(policy),
        fault_plan: Some(
            FaultPlan::new(0x0B5E).delay_prob(1.0, std::time::Duration::from_micros(200)),
        ),
        ..Default::default()
    };
    let out = FanStore::run(cfg, packed.partitions, |fs| {
        let work = || -> Result<(), fanstore::FsError> {
            let cold = fs.fork_tenant(2);
            let warm = fs.fork_tenant(1);
            let files = cold.enumerate("train")?;
            // Cold batched pass: every chunk crosses the (delayed)
            // fabric to its owner rank.
            for chunk in files.chunks(8) {
                for r in cold.read_many(chunk) {
                    r?;
                }
            }
            // Warm single-read pass: mostly served from the cache.
            for path in &files {
                warm.read_whole(path)?;
            }
            Ok(())
        };
        let status = work().map_err(|e| e.to_string());
        // Ring handle, not contents: this rank's daemon may still be
        // serving peers when the closure ends; spans are read after
        // `run` returns, once every daemon has joined.
        (status, Arc::clone(&fs.state().metrics), fs.trace().cloned())
    });
    let mut per_rank = Vec::with_capacity(out.len());
    for (status, registry, trace) in out {
        status.map_err(|e| format!("attrib workload failed: {e}"))?;
        per_rank.push((registry, trace.map(|t| t.spans()).unwrap_or_default()));
    }
    Ok(per_rank)
}

/// `fanstore attrib`: run the demo workload under QoS and a modelled
/// link delay, join every rank's spans per request id, and print the
/// per-stage bottleneck table — each request's wall time decomposed
/// into admission / queue / network / serve / decode / cache segments
/// plus the explicit residual — followed by the slowest requests and
/// their dominant segment.
pub fn run_attrib_demo(nodes: usize, files_n: usize) -> Result<String, String> {
    let per_rank = run_attributed_cluster(nodes, files_n)?;
    let mut spans = Vec::new();
    for (_, s) in &per_rank {
        spans.extend(s.iter().cloned());
    }
    let attrs = attribute(&spans);
    if attrs.is_empty() {
        return Err("no spans recorded".into());
    }
    let agg = aggregate(&attrs);
    let (bottleneck, _) = agg.bottleneck();
    let mut out = format!(
        "attribution demo ({nodes} nodes, {files_n} files): {} requests, \
         {:.1}% of wall attributed, bottleneck: {bottleneck}\n\n",
        agg.requests,
        agg.coverage() * 100.0,
    );
    out.push_str(&bottleneck_table(&attrs));
    let mut by_wall: Vec<&fanstore::attrib::RequestAttribution> = attrs.iter().collect();
    by_wall.sort_by_key(|a| std::cmp::Reverse(a.wall_us));
    out.push_str("\nslowest requests:\n");
    for a in by_wall.iter().take(5) {
        let (idx, top) =
            a.segments.iter().enumerate().max_by_key(|(_, v)| **v).expect("SEGMENTS is non-empty");
        out.push_str(&format!(
            "  {:#018x}  wall {:>6} us  dominant {} ({} us)  spans {}  ranks {}\n",
            a.request, a.wall_us, SEGMENTS[idx], top, a.spans, a.ranks,
        ));
    }
    Ok(out)
}

/// `fanstore slo`: run the same workload and print the per-tenant SLO
/// table — objective, good/bad classification, bad fraction and burn
/// rate — recomputed cluster-wide from the merged
/// `qos.tenant.<id>.slo.*` series (a burn rate of 1.0 means the tenant
/// is spending its error budget exactly as fast as the objective
/// allows; above 1.0 it will exhaust the budget early).
pub fn run_slo_demo(nodes: usize, files_n: usize) -> Result<String, String> {
    let per_rank = run_attributed_cluster(nodes, files_n)?;
    let merged = fanstore::metrics::MetricsRegistry::new();
    for (registry, _) in &per_rank {
        merged.merge(registry);
    }
    let snap = merged.snapshot();
    // Counters sum meaningfully across ranks; objective gauges do NOT
    // (merge adds gauges, so a 3-rank merge triples `target_milli`).
    // Every rank configures the same policy, so read the objectives
    // from a single rank's snapshot.
    let rank0 = per_rank[0].0.snapshot();
    let mut tenants: Vec<u64> = snap
        .counters
        .keys()
        .filter_map(|k| k.strip_prefix("qos.tenant.")?.strip_suffix(".slo.good")?.parse().ok())
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    // Only tenants with a configured objective classify reads; the rest
    // have empty zero-valued series minted at registration.
    tenants.retain(|t| rank0.gauges.contains_key(&format!("qos.tenant.{t}.slo.target_milli")));
    if tenants.is_empty() {
        return Err("no tenant recorded SLO classifications".into());
    }
    let mut out = format!("per-tenant SLO burn ({nodes} nodes, {files_n} files)\n\n");
    out.push_str(&format!(
        "{:>6}  {:>20}  {:>7}  {:>7}  {:>7}  {:>8}\n",
        "tenant", "objective", "good", "bad", "bad%", "burn"
    ));
    for t in tenants {
        let c = |suffix: &str| {
            snap.counters.get(&format!("qos.tenant.{t}.slo.{suffix}")).copied().unwrap_or(0)
        };
        let g = |suffix: &str| {
            rank0.gauges.get(&format!("qos.tenant.{t}.slo.{suffix}")).copied().unwrap_or(0)
        };
        let (good, bad) = (c("good"), c("bad"));
        let total = (good + bad).max(1);
        let bad_frac = bad as f64 / total as f64;
        let target = g("target_milli") as f64 / 1000.0;
        let burn = bad_frac / (1.0 - target).max(1e-9);
        out.push_str(&format!(
            "{t:>6}  {:>20}  {good:>7}  {bad:>7}  {:>6.1}%  {burn:>8.2}\n",
            format!("<= {} us @ {:.1}%", g("latency_us"), target * 100.0),
            bad_frac * 100.0,
        ));
    }
    Ok(out)
}

/// Keep only the series belonging to `tenant` (names containing
/// `tenant.<id>.`) — the `fanstore metrics --tenant N` filter.
fn filter_tenant(snap: fanstore::metrics::Snapshot, tenant: u64) -> fanstore::metrics::Snapshot {
    let tag = format!("tenant.{tenant}.");
    fanstore::metrics::Snapshot {
        counters: snap.counters.into_iter().filter(|(k, _)| k.contains(&tag)).collect(),
        gauges: snap.gauges.into_iter().filter(|(k, _)| k.contains(&tag)).collect(),
        histograms: snap.histograms.into_iter().filter(|(k, _)| k.contains(&tag)).collect(),
        exemplars: snap.exemplars.into_iter().filter(|(k, _)| k.contains(&tag)).collect(),
    }
}

/// Render a metrics snapshot as aligned text tables: counters, gauges,
/// then histograms with p50/p90/p99/max columns.
pub fn render_snapshot(snap: &fanstore::metrics::Snapshot) -> String {
    let width = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .map(String::len)
        .max()
        .unwrap_or(8)
        .max("histogram".len());
    let mut out = String::new();
    if !snap.counters.is_empty() {
        out.push_str(&format!("{:width$}  value\n", "counter"));
        for (name, v) in &snap.counters {
            out.push_str(&format!("{name:width$}  {v}\n"));
        }
        out.push('\n');
    }
    if !snap.gauges.is_empty() {
        out.push_str(&format!("{:width$}  value\n", "gauge"));
        for (name, v) in &snap.gauges {
            out.push_str(&format!("{name:width$}  {v}\n"));
        }
        out.push('\n');
    }
    if !snap.histograms.is_empty() {
        out.push_str(&format!(
            "{:width$}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}\n",
            "histogram", "count", "p50", "p90", "p99", "max"
        ));
        for (name, h) in &snap.histograms {
            out.push_str(&format!(
                "{name:width$}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}\n",
                h.count, h.p50, h.p90, h.p99, h.max
            ));
        }
    }
    out
}

/// `fanstore metrics`: run the demo workload, merge every rank's registry
/// into one cluster-wide view, and render it as a table (or JSON with
/// `--json`). With `--tenant N` the demo runs under QoS and the output
/// is filtered to that tenant's `qos.tenant.<N>.*` series.
pub fn run_metrics_demo(
    nodes: usize,
    files_n: usize,
    json: bool,
    tenant: Option<u64>,
) -> Result<String, String> {
    let merged = fanstore::metrics::MetricsRegistry::new();
    let ranks = match tenant {
        // The plain demo attaches no QoS; the tenant filter needs the
        // tenant-labelled series, so it rides the attributed workload.
        Some(_) => {
            let per_rank = run_attributed_cluster(nodes, files_n)?;
            for (registry, _) in &per_rank {
                merged.merge(registry);
            }
            per_rank.len()
        }
        None => {
            let per_rank = run_demo_cluster(nodes, files_n)?;
            for (registry, _) in &per_rank {
                merged.merge(registry);
            }
            per_rank.len()
        }
    };
    let mut snap = merged.snapshot();
    if let Some(t) = tenant {
        snap = filter_tenant(snap, t);
        if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
            return Err(format!("tenant {t} recorded no series (demo tenants are 1 and 2)"));
        }
    }
    if json {
        return Ok(snap.to_json());
    }
    let mut out = match tenant {
        Some(t) => {
            format!("tenant {t} metrics ({ranks} nodes, {files_n} files, demo workload)\n\n")
        }
        None => format!("cluster-wide metrics ({ranks} nodes, {files_n} files, demo workload)\n\n"),
    };
    out.push_str(&render_snapshot(&snap));
    Ok(out)
}

/// `fanstore trace dump`: run the demo workload and print every rank's
/// trace ring, then the span timelines grouped per request (client ->
/// fabric -> daemon), ordered by start time.
pub fn run_trace_dump(nodes: usize, files_n: usize) -> Result<String, String> {
    let per_rank = run_demo_cluster(nodes, files_n)?;
    let mut out = String::new();
    let mut all_spans = Vec::new();
    for (rank, (_, dump)) in per_rank.iter().enumerate() {
        let (events, spans) = fanstore::trace::TraceRecorder::parse_dump(dump)
            .map_err(|e| format!("rank {rank} trace: {e}"))?;
        out.push_str(&format!("# rank {rank}: {} events, {} spans\n", events.len(), spans.len()));
        for e in &events {
            out.push_str(&format!("{} {} {}\n", e.op.mnemonic(), e.path, e.bytes));
        }
        all_spans.extend(spans);
    }
    // Group spans by request id so one GET reads as a timeline even though
    // its stages were recorded on different ranks.
    let mut by_request: BTreeMap<u64, Vec<&fanstore::trace::SpanEvent>> = BTreeMap::new();
    for s in &all_spans {
        by_request.entry(s.request).or_default().push(s);
    }
    out.push_str(&format!("\n# span timelines ({} requests)\n", by_request.len()));
    for (request, mut spans) in by_request {
        spans.sort_by_key(|s| (s.start_us, s.dur_us));
        let base = spans.first().map(|s| s.start_us).unwrap_or(0);
        out.push_str(&format!("request {request:#x}\n"));
        for s in spans {
            out.push_str(&format!(
                "  +{:>6} us  {:>7} us  rank {}  {}\n",
                s.start_us - base,
                s.dur_us,
                s.rank,
                s.stage
            ));
        }
    }
    Ok(out)
}

/// `fanstore qos`: run a noisy-neighbor demo — tenant 1 (the "training
/// job") reads the namespace steadily while tenant 2 (the "noisy
/// neighbor") floods batched reads under a tight admission quota and an
/// already-expired deadline — then print the per-tenant QoS counters
/// (admitted / throttled / served / shed) merged across ranks.
pub fn run_qos_demo(nodes: usize, files_n: usize) -> Result<String, String> {
    if nodes == 0 || files_n == 0 {
        return Err("need at least one node and one file".into());
    }
    let packed =
        prepare(demo_dataset(files_n), &PrepConfig { partitions: nodes, ..Default::default() });
    let mut policy = QosPolicy::new()
        .with_quota(1, TenantQuota { weight: 4, ..TenantQuota::default() })
        .with_quota(
            2,
            TenantQuota {
                rate_per_s: 0.0,
                burst: 2,
                weight: 1,
                op_deadline: Some(std::time::Duration::ZERO),
            },
        );
    // No failover in the demo, so derive no deadlines for tenant 1.
    policy.deadline_from_timeout = false;
    policy.throttle_retries = 0;
    let cfg =
        ClusterConfig { nodes, read_through: true, qos: Some(policy), ..ClusterConfig::default() };
    let out = FanStore::run(cfg, packed.partitions, |fs| {
        let work = || -> Result<(u64, u64), fanstore::FsError> {
            let a = fs.fork_tenant(1);
            let b = fs.fork_tenant(2);
            let files = fs.enumerate("train")?;
            let mut b_ok = 0u64;
            let mut b_throttled = 0u64;
            // The neighbor floods first (cold caches, so its batches
            // really hit the daemons — where the expired deadline sheds
            // them); past its burst the bucket throttles the rest.
            for chunk in files.chunks(2) {
                for r in b.read_many(chunk) {
                    match r {
                        Ok(_) => b_ok += 1,
                        Err(fanstore::FsError::Throttled(_)) => b_throttled += 1,
                        Err(e) => return Err(e),
                    }
                }
            }
            for path in &files {
                a.read_whole(path)?;
            }
            Ok((b_ok, b_throttled))
        };
        (work().map_err(|e| e.to_string()), Arc::clone(&fs.state().metrics))
    });
    let merged = fanstore::metrics::MetricsRegistry::new();
    let mut b_ok = 0u64;
    let mut b_throttled = 0u64;
    for (status, registry) in &out {
        let (ok, throttled) = status.clone().map_err(|e| format!("qos workload failed: {e}"))?;
        b_ok += ok;
        b_throttled += throttled;
        merged.merge(registry);
    }
    let snap = merged.snapshot();
    let mut report = format!(
        "qos noisy-neighbor demo ({nodes} nodes, {files_n} files): \
         tenant 2 delivered {b_ok} reads, {b_throttled} throttled\n\n"
    );
    let mut lines: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter(|(k, _)| {
            k.starts_with("qos.tenant.")
                || matches!(
                    k.as_str(),
                    "client.throttled.ops"
                        | "client.shed.replies"
                        | "client.retry.exhausted"
                        | "daemon.shed.requests"
                )
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    for (k, v) in snap.gauges.iter().filter(|(k, _)| k.starts_with("qos.tenant.")) {
        lines.push((k.clone(), *v));
    }
    lines.sort();
    let width = lines.iter().map(|(k, _)| k.len()).max().unwrap_or(8);
    for (k, v) in lines {
        report.push_str(&format!("{k:width$}  {v}\n"));
    }
    Ok(report)
}

/// Synthetic model state for the checkpoint demo: mostly stable bytes
/// with sparse per-generation drift, so delta generations visibly shrink.
fn demo_ckpt_payload(rank: usize, generation: u64, bytes: usize) -> Vec<u8> {
    (0..bytes)
        .map(|i| {
            let stable = ((i * 37) ^ (rank * 11)) as u8;
            if i.is_multiple_of(53) {
                stable.wrapping_add(generation as u8)
            } else {
                stable
            }
        })
        .collect()
}

/// `fanstore ckpt <ls|verify|gc>`: write `generations` checkpoint
/// generations of an evolving synthetic model through the durable store
/// (delta-encoded, replicated when the cluster has >1 node), then run the
/// requested inspection against the lineage on every rank.
pub fn run_ckpt_demo(
    sub: &str,
    nodes: usize,
    generations: usize,
    keep_last: usize,
) -> Result<String, String> {
    if !matches!(sub, "ls" | "verify" | "gc") {
        return Err(format!("unknown ckpt subcommand: {sub}"));
    }
    if nodes == 0 || generations == 0 {
        return Err("need at least one node and one generation".into());
    }
    let packed = prepare(
        demo_dataset(nodes.max(2)),
        &PrepConfig { partitions: nodes, ..Default::default() },
    );
    let outputs = FanStore::run(
        ClusterConfig { nodes, ..Default::default() },
        packed.partitions,
        |fs| -> Result<String, fanstore::FsError> {
            let cfg = CkptConfig {
                tag: "cli".to_string(),
                chunk_size: 4096,
                chunks_per_segment: 4,
                replicas: usize::from(fs.nodes() > 1),
                keep_last,
                ..CkptConfig::default()
            };
            let store = CheckpointStore::new(fs, cfg);
            for g in 1..=generations as u64 {
                store.put(g, &demo_ckpt_payload(fs.rank(), g, 32 * 1024))?;
            }
            let mut out = String::new();
            match sub {
                "ls" => {
                    for g in store.generations()? {
                        let m = store.manifest(g)?;
                        let base = m.base.map_or("full".to_string(), |b| format!("delta<-{b}"));
                        out.push_str(&format!(
                            "rank {} gen {g}: {base}  raw={}  stored={}  segments={}  ratio={:.2}\n",
                            fs.rank(),
                            m.raw_bytes,
                            m.stored_bytes,
                            m.segments.len(),
                            m.raw_bytes as f64 / m.stored_bytes.max(1) as f64,
                        ));
                    }
                }
                "verify" => {
                    for g in store.generations()? {
                        let v = store.verify(g)?;
                        out.push_str(&format!(
                            "rank {} gen {g}: OK  raw={}  chunks={}  chain={:?}\n",
                            fs.rank(),
                            v.raw_bytes,
                            v.chunks,
                            v.chain,
                        ));
                    }
                }
                "gc" => {
                    let r = store.gc()?;
                    out.push_str(&format!(
                        "rank {}: removed {:?}  kept {:?}\n",
                        fs.rank(),
                        r.removed,
                        r.kept
                    ));
                }
                _ => unreachable!("subcommand validated above"),
            }
            Ok(out)
        },
    );
    let mut report = format!("ckpt {sub} ({nodes} nodes, {generations} generations)\n");
    for out in outputs {
        report.push_str(&out.map_err(|e| format!("ckpt workload failed: {e}"))?);
    }
    Ok(report)
}

/// `fanstore wal <ls|verify|compact>`: run a write-heavy workload on a
/// cluster with the durable write path enabled — three generations of
/// output files per rank, unlinking each superseded generation, with a
/// WAL flush per generation so the segment set has versions, tombstones
/// and live data — then run the requested inspection on every rank's
/// [`fanstore::wal::WalStore`].
pub fn run_wal_demo(sub: &str, nodes: usize, files_n: usize) -> Result<String, String> {
    if !matches!(sub, "ls" | "verify" | "compact") {
        return Err(format!("unknown wal subcommand: {sub}"));
    }
    if nodes == 0 || files_n == 0 {
        return Err("need at least one node and one file".into());
    }
    let packed = prepare(
        demo_dataset(nodes.max(2)),
        &PrepConfig { partitions: nodes, ..Default::default() },
    );
    let wal_cfg = fanstore::wal::WalConfig {
        memtable_budget: 64 * 1024,
        compact_min_segments: 0, // the `compact` subcommand drives it
        ..Default::default()
    };
    let outputs = FanStore::run(
        ClusterConfig { nodes, wal: Some(wal_cfg), ..Default::default() },
        packed.partitions,
        |fs| -> Result<String, fanstore::FsError> {
            let wal = Arc::clone(fs.state().wal.as_ref().expect("wal configured"));
            let rank = fs.rank();
            for g in 1..=3u64 {
                for i in 0..files_n {
                    let path = format!("out/gen{g}/r{rank}-f{i}.bin");
                    let payload = demo_ckpt_payload(rank, g, 2048);
                    fs.write_whole(&path, &payload)?;
                }
                if g > 1 {
                    for i in 0..files_n {
                        fs.unlink(&format!("out/gen{}/r{rank}-f{i}.bin", g - 1))?;
                    }
                }
                wal.flush()?; // one immutable segment per generation
            }
            let mut out = String::new();
            match sub {
                "ls" => {
                    let s = wal.status();
                    out.push_str(&format!(
                        "rank {rank}: publish={} trim_seq={} durable_seq={} memtable={} keys \
                         ({} B)  segments={}\n",
                        s.publish,
                        s.trim_seq,
                        s.durable_seq,
                        s.memtable_keys,
                        s.memtable_bytes,
                        s.segments.len(),
                    ));
                    for seg in &s.segments {
                        out.push_str(&format!(
                            "rank {rank}:   {}  entries={}  bytes={}  seq=[{},{}]\n",
                            seg.name, seg.entries, seg.bytes, seg.first_seq, seg.last_seq,
                        ));
                    }
                }
                "verify" => {
                    let v = wal.verify();
                    if !v.errors.is_empty() {
                        return Err(fanstore::FsError::Corrupt(format!(
                            "rank {rank}: {}",
                            v.errors.join("; ")
                        )));
                    }
                    out.push_str(&format!(
                        "rank {rank}: OK  publish={}  segments={}  entries={}  \
                         log_records={}  torn={}\n",
                        v.publish, v.segments_ok, v.entries, v.log_records, v.log_torn,
                    ));
                }
                "compact" => {
                    let r = wal.compact()?;
                    let s = wal.status();
                    out.push_str(&format!(
                        "rank {rank}: merged={} dropped(versions={} tombstones={} expired={}) \
                         in={} B out={} B  -> {} segments\n",
                        r.merged_segments,
                        r.dropped_versions,
                        r.dropped_tombstones,
                        r.dropped_expired,
                        r.in_bytes,
                        r.out_bytes,
                        s.segments.len(),
                    ));
                }
                _ => unreachable!("subcommand validated above"),
            }
            Ok(out)
        },
    );
    let mut report = format!("wal {sub} ({nodes} nodes, {files_n} files/generation)\n");
    for out in outputs {
        report.push_str(&out.map_err(|e| format!("wal workload failed: {e}"))?);
    }
    Ok(report)
}

/// `fanstore range`: pack a synthetic file into a range-chunked FCHK
/// container, run a 2-node cluster, and read a byte window from the
/// non-owning rank — printing how many compressed bytes actually moved
/// compared with the file size (DESIGN.md §13).
pub fn run_range_demo(size: usize, chunk: usize, start: u64, end: u64) -> Result<String, String> {
    let end = end.min(size as u64);
    if start >= end {
        return Err(format!("empty window [{start}, {end})"));
    }
    let body: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    let packed = prepare(
        vec![("demo/big.bin".to_string(), body.clone())],
        &PrepConfig { partitions: 2, chunk_size: chunk, ..PrepConfig::default() },
    );
    let results = FanStore::run(
        ClusterConfig { nodes: 2, ..ClusterConfig::default() },
        packed.partitions,
        move |fs| {
            if fs.rank() != 1 {
                return Ok((0, 0, true));
            }
            let got = fs.read_range("demo/big.bin", start, end)?;
            let ok = got == body[start as usize..end as usize];
            Ok((got.len(), fs.state().stats.remote_bytes.get(), ok))
        },
    );
    let (len, moved, ok) = results
        .into_iter()
        .nth(1)
        .expect("rank 1")
        .map_err(|e: fanstore::FsError| e.to_string())?;
    if !ok {
        return Err("range read returned wrong bytes".into());
    }
    Ok(format!(
        "packed {size} B into chunked container ({chunk} B chunks)\n\
         read [{start}, {end}) from the non-owning rank: {len} B delivered\n\
         compressed bytes moved: {moved} B ({:.1}% of the file)\n\
         content check: exact",
        100.0 * moved as f64 / size as f64,
    ))
}

/// `fanstore tier`: pack a float file progressively and read it back at
/// a reduced fidelity tier from the non-owning rank, printing the bytes
/// moved and the resulting approximation error (DESIGN.md §13).
pub fn run_tier_demo(floats: usize, tiers: u8, min_tier: u8) -> Result<String, String> {
    if floats == 0 || tiers == 0 {
        return Err("need at least one float lane and one tier".into());
    }
    let body: Vec<u8> = (0..floats).flat_map(|i| ((i as f32) * 0.001).to_le_bytes()).collect();
    let size = body.len();
    let packed = prepare(
        vec![("demo/model.f32".to_string(), body.clone())],
        &PrepConfig { partitions: 2, progressive_tiers: tiers, ..PrepConfig::default() },
    );
    let results = FanStore::run(
        ClusterConfig { nodes: 2, ..ClusterConfig::default() },
        packed.partitions,
        move |fs| {
            if fs.rank() != 1 {
                return Ok((0, 0.0f32, 0u64));
            }
            let approx = fs.read_whole_tier("demo/model.f32", min_tier)?;
            let err = fanstore_compress::progressive::max_abs_error(&body, &approx);
            Ok((approx.len(), err, fs.state().stats.remote_bytes.get()))
        },
    );
    let (len, err, moved) = results
        .into_iter()
        .nth(1)
        .expect("rank 1")
        .map_err(|e: fanstore::FsError| e.to_string())?;
    Ok(format!(
        "packed {size} B of f32 into {tiers} progressive tiers\n\
         read tiers 0..={min_tier} remotely: {len} B decoded, {moved} B moved\n\
         max |error| across f32 lanes: {err:e}",
    ))
}

/// Temp-dir helper for the CLI tests.
pub fn temp_dir(tag: &str) -> PathBuf {
    let unique = format!(
        "fanstore-cli-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    );
    std::env::temp_dir().join(unique)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_tree(tag: &str) -> PathBuf {
        let root = temp_dir(tag);
        std::fs::create_dir_all(root.join("a/b")).unwrap();
        std::fs::write(root.join("top.txt"), b"top level content".repeat(50)).unwrap();
        std::fs::write(root.join("a/one.bin"), vec![1u8; 3000]).unwrap();
        std::fs::write(root.join("a/b/two.bin"), vec![2u8; 4000]).unwrap();
        root
    }

    #[test]
    fn args_parse_flags_and_positionals() {
        let a = Args::parse(
            ["--partitions", "4", "input", "--codec", "lz4hc-9", "output"].map(String::from),
        )
        .unwrap();
        assert_eq!(a.get("partitions"), Some("4"));
        assert_eq!(a.get("codec"), Some("lz4hc-9"));
        assert_eq!(a.positional(), &["input".to_string(), "output".to_string()]);
        assert_eq!(a.get_usize("partitions", 1).unwrap(), 4);
        assert_eq!(a.get_usize("missing", 7).unwrap(), 7);
    }

    #[test]
    fn args_reject_missing_value() {
        assert!(Args::parse(["--codec".to_string()]).is_err());
        let a = Args::parse(["--n".to_string(), "x".to_string()]).unwrap();
        assert!(a.get_usize("n", 0).is_err());
    }

    #[test]
    fn collect_walks_recursively_and_sorts() {
        let root = make_tree("collect");
        let files = collect_files(&root).unwrap();
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["a/b/two.bin", "a/one.bin", "top.txt"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The binary but for `argv` and the exit code.
    fn cli(args: &[&str]) -> Result<String, String> {
        run(&Args::parse(args.iter().map(|a| a.to_string()))?)
    }

    #[test]
    fn prep_then_inspect_roundtrip() {
        let input = make_tree("prep");
        let output = temp_dir("prep-out");
        let (i, o) = (input.to_str().unwrap(), output.to_str().unwrap());
        let summary = cli(&["prep", "--input", i, "--output", o, "--partitions", "2"]).unwrap();
        assert!(summary.contains("packed 3 files"), "{summary}");
        assert!(summary.contains("with lzsse8-2"), "the default codec: {summary}");

        let parts: Vec<String> =
            (0..2).map(|p| output.join(format!("part{p:04}.fst")).display().to_string()).collect();
        let listing = cli(&["inspect", &parts[0], &parts[1], "--verify", "true"]).unwrap();
        assert_eq!(listing.matches("verify=ok").count(), 3, "{listing}");
        assert_eq!(listing.lines().count(), 3 + 2, "one header per partition: {listing}");

        assert!(cli(&["prep", "--input", i]).unwrap_err().contains("missing --output"));
        std::fs::remove_dir_all(&input).unwrap();
        std::fs::remove_dir_all(&output).unwrap();
    }

    #[test]
    fn an_unknown_subcommand_is_answered_with_the_usage() {
        for bad in [&["frobnicate"][..], &[], &["trace"], &["metrics", "extra"], &["inspect"]] {
            let err = cli(bad).unwrap_err();
            assert_eq!(err, usage(), "{bad:?}");
        }
        for (name, args, _) in COMMANDS {
            assert!(usage().contains(&format!("fanstore {name} {args}")), "{name}");
        }
    }

    #[test]
    fn prep_rejects_unknown_codec() {
        let input = make_tree("badcodec");
        let err = run_prep(&input, &temp_dir("unused"), 1, "nocodec-9").unwrap_err();
        assert!(err.contains("unknown codec"));
        std::fs::remove_dir_all(&input).unwrap();
    }

    #[test]
    fn prep_rejects_empty_dir() {
        let empty = temp_dir("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run_prep(&empty, &temp_dir("unused2"), 1, "lz4hc-9").is_err());
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn metrics_demo_renders_histograms() {
        let out = run_metrics_demo(2, 6, false, None).unwrap();
        assert!(out.contains("client.get.latency_us"), "{out}");
        assert!(out.contains("client.files.written"), "{out}");
        assert!(out.contains("p99"), "{out}");
    }

    #[test]
    fn metrics_demo_json_parses() {
        let out = run_metrics_demo(2, 6, true, None).unwrap();
        let v = fanstore::metrics::json::parse(&out).expect("valid JSON");
        assert!(v.get("counters").is_some(), "{out}");
        assert!(v.get("histograms").is_some(), "{out}");
    }

    #[test]
    fn metrics_tenant_filter_keeps_only_that_tenant() {
        let out = run_metrics_demo(2, 6, false, Some(2)).unwrap();
        assert!(out.contains("qos.tenant.2.slo.good"), "{out}");
        assert!(!out.contains("qos.tenant.1."), "other tenants filtered out: {out}");
        assert!(!out.contains("client.get.latency_us"), "unlabelled series filtered out: {out}");
        assert!(run_metrics_demo(2, 6, false, Some(99)).is_err(), "unknown tenant is an error");
    }

    #[test]
    fn attrib_demo_prints_bottleneck_table() {
        let out = run_attrib_demo(2, 8).unwrap();
        for name in SEGMENTS {
            assert!(out.contains(&format!("| {name} |")), "{out}");
        }
        assert!(out.contains("| residual |"), "{out}");
        assert!(out.contains("slowest requests:"), "{out}");
        assert!(out.contains("% of wall attributed"), "{out}");
    }

    #[test]
    fn slo_demo_shows_burning_and_healthy_tenants() {
        let out = run_slo_demo(2, 8).unwrap();
        assert!(out.contains("tenant"), "{out}");
        assert!(out.contains("burn"), "{out}");
        // Tenant 2's 300 us objective against a 200 us-per-hop link must
        // burn; tenant 1's 20 ms objective on warm reads must not.
        let t2 = out.lines().find(|l| l.trim_start().starts_with("2 ")).expect("tenant 2 row");
        assert!(t2.contains("<= 300 us"), "{t2}");
    }

    #[test]
    fn trace_dump_groups_spans_by_request() {
        let out = run_trace_dump(2, 6).unwrap();
        assert!(out.contains("# span timelines"), "{out}");
        assert!(out.contains("client.get"), "{out}");
        assert!(out.contains("client.get_many"), "batched pass must trace: {out}");
        assert!(out.contains("request 0x"), "{out}");
    }

    #[test]
    fn demo_rejects_empty_cluster() {
        assert!(run_metrics_demo(0, 4, false, None).is_err());
        assert!(run_trace_dump(2, 0).is_err());
    }

    #[test]
    fn range_demo_moves_a_fraction_of_the_file() {
        let out = run_range_demo(256 * 1024, 16 * 1024, 50_000, 70_000).unwrap();
        assert!(out.contains("content check: exact"), "{out}");
        let moved: u64 = out
            .lines()
            .find(|l| l.starts_with("compressed bytes moved"))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|v| v.parse().ok())
            .expect("moved bytes line");
        assert!(moved < 256 * 1024 / 4, "a 20 KB window must not move the file: {out}");
        assert!(run_range_demo(4096, 1024, 10, 10).is_err(), "empty window rejected");
    }

    #[test]
    fn tier_demo_reports_bounded_error() {
        let out = run_tier_demo(4096, 4, 1).unwrap();
        assert!(out.contains("read tiers 0..=1"), "{out}");
        assert!(out.contains("max |error|"), "{out}");
        let exact = run_tier_demo(4096, 4, 3).unwrap();
        assert!(exact.contains("max |error| across f32 lanes: 0e0"), "all tiers exact: {exact}");
        assert!(run_tier_demo(0, 4, 1).is_err());
    }

    #[test]
    fn qos_demo_reports_tenant_counters() {
        let out = run_qos_demo(2, 12).unwrap();
        assert!(out.contains("qos.tenant.1.admitted"), "{out}");
        assert!(out.contains("qos.tenant.2.throttled"), "{out}");
        assert!(out.contains("daemon.shed.requests"), "{out}");
        assert!(out.contains("qos.tenant.2.quota.burst"), "{out}");
    }

    #[test]
    fn ckpt_ls_shows_delta_lineage() {
        let out = run_ckpt_demo("ls", 2, 3, 0).unwrap();
        assert!(out.contains("gen 1: full"), "{out}");
        assert!(out.contains("gen 2: delta<-1"), "{out}");
        assert!(out.contains("gen 3: delta<-2"), "{out}");
        assert!(out.contains("rank 1"), "every rank reports its lineage: {out}");
    }

    #[test]
    fn ckpt_verify_reports_every_generation_ok() {
        let out = run_ckpt_demo("verify", 1, 3, 0).unwrap();
        assert_eq!(out.matches(": OK").count(), 3, "{out}");
        assert!(out.contains("chain=[2, 1]"), "{out}");
    }

    #[test]
    fn ckpt_gc_removes_old_generations() {
        let out = run_ckpt_demo("gc", 1, 5, 2).unwrap();
        assert!(out.contains("kept"), "{out}");
        assert!(!out.contains("removed []"), "five gens, keep 2: something must go: {out}");
    }

    #[test]
    fn ckpt_rejects_bad_input() {
        assert!(run_ckpt_demo("frobnicate", 1, 3, 0).is_err());
        assert!(run_ckpt_demo("ls", 0, 3, 0).is_err());
        assert!(run_ckpt_demo("ls", 1, 0, 0).is_err());
    }

    #[test]
    fn wal_ls_shows_published_segments() {
        let out = run_wal_demo("ls", 2, 3).unwrap();
        assert!(out.contains("publish=3"), "three flushes publish three times: {out}");
        assert!(out.contains("wal/seg-"), "{out}");
        assert!(out.contains("memtable=0 keys"), "flush drains the memtable: {out}");
        assert!(out.contains("rank 1"), "every rank reports: {out}");
    }

    #[test]
    fn wal_verify_reports_clean_store() {
        let out = run_wal_demo("verify", 1, 3).unwrap();
        assert!(out.contains(": OK"), "{out}");
        assert!(out.contains("segments=3"), "{out}");
        assert!(out.contains("torn=false"), "{out}");
    }

    #[test]
    fn wal_compact_retires_superseded_state() {
        let out = run_wal_demo("compact", 1, 4).unwrap();
        assert!(out.contains("merged=3"), "{out}");
        assert!(out.contains("tombstones=8"), "gen1+gen2 unlinks retire: {out}");
        assert!(out.contains("-> 1 segments"), "{out}");
    }

    #[test]
    fn wal_rejects_bad_input() {
        assert!(run_wal_demo("frobnicate", 1, 3).is_err());
        assert!(run_wal_demo("ls", 0, 3).is_err());
        assert!(run_wal_demo("ls", 1, 0).is_err());
    }

    #[test]
    fn inspect_detects_corruption() {
        let input = make_tree("corrupt");
        let output = temp_dir("corrupt-out");
        run_prep(&input, &output, 1, "lz4hc-9").unwrap();
        let part = output.join("part0000.fst");
        let mut bytes = std::fs::read(&part).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF; // damage the last entry's payload
        std::fs::write(&part, &bytes).unwrap();
        let lines = run_inspect(&part, true).unwrap();
        assert!(
            lines.iter().any(|l| l.contains("CORRUPT")),
            "corruption must be reported: {lines:?}"
        );
        let failed = cli(&["inspect", part.to_str().unwrap()]).unwrap_err();
        assert!(failed.contains("CORRUPT"), "the listing is the error: {failed}");
        std::fs::remove_dir_all(&input).unwrap();
        std::fs::remove_dir_all(&output).unwrap();
    }
}
