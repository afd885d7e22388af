//! # fanstore-cli
//!
//! The one `fanstore` binary: [`run`] dispatches over [`COMMANDS`], the
//! only list of subcommands (the usage text is generated from it).
//!
//! * `fanstore prep` — walk a directory, compress and pack its files into
//!   partition files (the paper's §V-B data-preparation tool).
//! * `fanstore inspect` — list the contents of partition files and
//!   verify that every entry decompresses cleanly.
//! * `fanstore report` — run one seeded workload on a small in-process
//!   cluster and print what its own telemetry says about it: the
//!   per-stage bottleneck table, the slowest requests with their span
//!   timelines (stages recorded on different ranks, joined by request
//!   id), and every rank's metrics merged into one registry (`--json
//!   true` for that snapshot alone).
//!
//! The argument parsing is deliberately dependency-free (`--flag value`
//! pairs), mirroring the original tool's minimal interface: data path,
//! partition count, compression algorithm.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fanstore::attrib::{aggregate, attribute, bottleneck_table, RequestAttribution, SEGMENTS};
use fanstore::cluster::{ClusterConfig, FanStore};
use fanstore::metrics::{MetricsRegistry, Snapshot};
use fanstore::node::decompress_object_into;
use fanstore::pack::parse_partition;
use fanstore::prep::{prepare, PrepConfig};
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

    /// The subcommand's name is its only positional word; any further
    /// word is a usage error.
    fn no_words(&self) -> Result<(), String> {
        if self.positional.len() > 1 {
            return Err(usage());
        }
        Ok(())
    }
}

/// One subcommand: its name, its arguments as the usage text shows them,
/// and the code that runs it.
pub type Command = (&'static str, &'static str, fn(&Args) -> Result<String, String>);

/// Every `fanstore` subcommand. [`run`] dispatches over this list and
/// [`usage`] prints it; there is no other.
pub const COMMANDS: &[Command] = &[
    ("prep", "--input <dir> --output <dir> [--partitions 1] [--codec lzsse8-2]", |a| {
        a.no_words()?;
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
    ("report", "[--nodes 4] [--files 24] [--json false]", |a| {
        a.no_words()?;
        run_report(a.get_usize("nodes", 4)?, a.get_usize("files", 24)?, a.get_bool("json", false))
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

/// Inspect a partition file: list entries and verify that each decodes
/// through the store's own object decoder (so range-chunked and
/// progressive FCHK entries verify like whole-file ones). Returns the
/// report lines.
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
    let mut scratch = Vec::new();
    for e in &entries {
        let size = e.stat.size as usize;
        let status = if !verify {
            "-"
        } else if decompress_object_into(e.codec, &e.data, size, &e.path, &mut scratch).is_ok() {
            "ok"
        } else {
            "CORRUPT"
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

/// Build a small in-memory dataset for the report's workload.
fn demo_dataset(files_n: usize) -> Vec<(String, Vec<u8>)> {
    let spec = DatasetSpec::scaled(DatasetKind::LanguageTxt, files_n, 0x0B5E);
    (0..files_n).map(|i| (format!("train/f{i:03}.txt", i = i), spec.generate(i))).collect()
}

/// One rank's observability output from the report's workload: its
/// metrics registry and the spans its trace ring recorded.
type RankObservations = (Arc<MetricsRegistry>, Vec<SpanEvent>);

/// Run the report's one seeded workload on an in-process cluster with a
/// modelled 200 µs link delay, so the span trees carry queue, network,
/// serve and decode stages worth attributing. Each rank's client does a
/// cold batched pass (`read_many`, one GetMany per owner rank), then a
/// warm single-read pass, then writes one output file. Returns each
/// rank's registry and spans.
fn run_attributed_cluster(nodes: usize, files_n: usize) -> Result<Vec<RankObservations>, String> {
    if nodes == 0 || files_n == 0 {
        return Err("need at least one node and one file".into());
    }
    let packed =
        prepare(demo_dataset(files_n), &PrepConfig { partitions: nodes, ..Default::default() });
    let cfg = ClusterConfig {
        nodes,
        trace_ring: 8192,
        fault_plan: Some(
            FaultPlan::new(0x0B5E).delay_prob(1.0, std::time::Duration::from_micros(200)),
        ),
        ..Default::default()
    };
    let out = FanStore::run(cfg, packed.partitions, |fs| {
        let work = || -> Result<(), fanstore::FsError> {
            let files = fs.enumerate("train")?;
            // Cold batched pass: each chunk is one request id whose
            // client.get_many span joins the per-rank fabric.rpc children
            // across the (delayed) fabric.
            for chunk in files.chunks(8) {
                for r in fs.read_many(chunk) {
                    r?;
                }
            }
            // Warm single-read pass: mostly served from the cache.
            for path in &files {
                fs.read_whole(path)?;
            }
            fs.write_whole(&format!("checkpoints/rank{}/model.h5", fs.rank()), &[0xCE; 512])
        };
        let status = work().map_err(|e| e.to_string());
        // Ring handle, not contents: this rank's daemon may still be
        // serving peers when the closure ends; spans are read after
        // `run` returns, once every daemon has joined.
        (status, Arc::clone(&fs.state().metrics), fs.trace().cloned())
    });
    let mut per_rank = Vec::with_capacity(out.len());
    for (status, registry, trace) in out {
        status.map_err(|e| format!("report workload failed: {e}"))?;
        per_rank.push((registry, trace.map(|t| t.spans()).unwrap_or_default()));
    }
    Ok(per_rank)
}

/// `fanstore report`: run the seeded workload, then print, in order, a
/// header (requests, attributed share of wall time, bottleneck), the
/// per-stage bottleneck table, the five slowest requests with their span
/// timelines, and the merged registry. With
/// `json` it prints only the merged snapshot, exemplars included.
pub fn run_report(nodes: usize, files_n: usize, json: bool) -> Result<String, String> {
    let per_rank = run_attributed_cluster(nodes, files_n)?;
    let merged = MetricsRegistry::new();
    let mut spans = Vec::new();
    for (registry, s) in &per_rank {
        merged.merge(registry);
        spans.extend_from_slice(s);
    }
    let snap = merged.snapshot();
    if json {
        return Ok(snap.to_json());
    }
    let attrs = attribute(&spans);
    if attrs.is_empty() {
        return Err("no spans recorded".into());
    }
    let agg = aggregate(&attrs);
    let mut out = format!(
        "report ({nodes} nodes, {files_n} files): {} requests, \
         {:.1}% of wall attributed, bottleneck: {}\n\n",
        agg.requests,
        agg.coverage() * 100.0,
        agg.bottleneck().0,
    );
    out.push_str(&bottleneck_table(&attrs));
    out.push_str(&slowest_requests(&attrs, &spans));
    out.push('\n');
    out.push_str(&render_snapshot(&snap));
    Ok(out)
}

/// The five slowest requests, each with its dominant segment and its span
/// timeline (offset from the request's first span, duration, rank,
/// stage), so an exemplar's request id leads to the stages behind it.
fn slowest_requests(attrs: &[RequestAttribution], spans: &[SpanEvent]) -> String {
    let mut by_wall: Vec<&RequestAttribution> = attrs.iter().collect();
    by_wall.sort_by_key(|a| std::cmp::Reverse(a.wall_us));
    let mut out = String::from("\nslowest requests:\n");
    for a in by_wall.into_iter().take(5) {
        let (idx, top) =
            a.segments.iter().enumerate().max_by_key(|(_, v)| **v).expect("SEGMENTS is non-empty");
        out.push_str(&format!(
            "  request {:x}  wall {} us  dominant {} ({} us)  spans {}  ranks {}\n",
            a.request, a.wall_us, SEGMENTS[idx], top, a.spans, a.ranks,
        ));
        let mut tree: Vec<&SpanEvent> = spans.iter().filter(|s| s.request == a.request).collect();
        tree.sort_by_key(|s| (s.start_us, s.dur_us));
        for s in tree {
            out.push_str(&format!(
                "    +{:>6} us  {:>7} us  rank {}  {}\n",
                s.start_us - a.start_us,
                s.dur_us,
                s.rank,
                s.stage
            ));
        }
    }
    out
}

/// Render a metrics snapshot as aligned text tables: counters, gauges,
/// then histograms with p50/p90/p99/max columns.
pub fn render_snapshot(snap: &Snapshot) -> String {
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
    fn inspect_verifies_chunked_and_progressive_entries() {
        let text: Vec<u8> =
            (0..40_000u32).map(|i| b"fanstore"[(i % 8) as usize] ^ (i / 97) as u8).collect();
        let floats: Vec<u8> = (0..4096).flat_map(|i| ((i as f32) * 0.001).to_le_bytes()).collect();
        let chunked = prepare(
            vec![("big.txt".to_string(), text), ("small.txt".to_string(), b"tiny".to_vec())],
            &PrepConfig { chunk_size: 4096, ..PrepConfig::default() },
        );
        let progressive = prepare(
            vec![("model.f32".to_string(), floats)],
            &PrepConfig { progressive_tiers: 4, ..PrepConfig::default() },
        );
        let dir = temp_dir("fchk");
        std::fs::create_dir_all(&dir).unwrap();
        let mut parts = Vec::new();
        for (name, packed) in [("chunked", chunked), ("progressive", progressive)] {
            let path = dir.join(format!("{name}.fst"));
            std::fs::write(&path, &packed.partitions[0]).unwrap();
            parts.push(path.display().to_string());
        }
        let listing = cli(&["inspect", &parts[0], &parts[1]]).unwrap();
        let entries: Vec<&str> = listing.lines().filter(|l| l.starts_with("  ")).collect();
        assert_eq!(entries.len(), 3, "{listing}");
        let fchk = format!("codec={}", fanstore::pack::CHUNKED);
        assert_eq!(entries.iter().filter(|l| l.contains(&fchk)).count(), 2, "{listing}");
        assert!(entries.iter().all(|l| l.ends_with("verify=ok")), "{listing}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unknown_subcommand_is_answered_with_the_usage() {
        for bad in [&["frobnicate"][..], &[], &["report", "extra"], &["inspect"]] {
            let err = cli(bad).unwrap_err();
            assert_eq!(err, usage(), "{bad:?}");
        }
        // The demo subcommands that the one report replaced.
        let removed: [&[&str]; 9] = [
            &["metrics"],
            &["trace", "dump"],
            &["ckpt", "ls"],
            &["wal", "ls"],
            &["qos"],
            &["attrib"],
            &["slo"],
            &["range"],
            &["tier"],
        ];
        for bad in removed {
            assert_eq!(cli(bad).unwrap_err(), usage(), "{bad:?}");
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
    fn report_has_every_section() {
        let out = cli(&["report", "--nodes", "2", "--files", "8"]).unwrap();
        assert!(out.contains("% of wall attributed"), "{out}");
        for name in SEGMENTS {
            assert!(out.contains(&format!("| {name} |")), "{out}");
        }
        assert!(out.contains("| residual |"), "{out}");
        // Each slowest request is followed by its span timeline.
        let slowest = out.split("slowest requests:").nth(1).expect("slowest requests section");
        assert!(slowest.lines().any(|l| l.trim_start().starts_with('+')), "{out}");
        assert!(out.contains("client.get.latency_us"), "{out}");
        assert!(out.contains("client.files.written"), "{out}");
        assert!(out.contains("p99"), "{out}");
    }

    #[test]
    fn report_json_parses() {
        let out = cli(&["report", "--nodes", "2", "--files", "6", "--json", "true"]).unwrap();
        let v = fanstore::metrics::json::parse(&out).expect("valid JSON");
        for key in ["counters", "histograms", "exemplars"] {
            assert!(v.get(key).is_some(), "{key}: {out}");
        }
    }

    #[test]
    fn demo_rejects_empty_cluster() {
        assert!(cli(&["report", "--nodes", "0"]).is_err());
        assert!(cli(&["report", "--files", "0"]).is_err());
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
