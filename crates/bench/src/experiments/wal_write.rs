//! Durable write path benchmark: WAL append throughput under per-write
//! sync versus group commit, commit latency percentiles, and the write
//! amplification the flush/compaction pipeline adds on top of the
//! logical bytes.
//!
//! Everything here is **measured** except the fsync cost, which is
//! **modelled**: [`RamMedia`] spins the shared monotonic clock for a
//! configured `sync_cost` per sync, the same way the fabric models link
//! delay. The batching that amortises the cost is the real code path —
//! group commit issues one sync per `commit_every` appends — so the
//! speedup the gate holds is the structural one, not a timer artifact.
//! Media mutation bytes are counted by wrapping the medium in a
//! [`CrashMedia`] with an effectively infinite power-cut budget and
//! reading back how much of the budget the workload consumed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fanstore::metrics::MetricsRegistry;
use fanstore::wal::{CrashMedia, RamMedia, WalConfig, WalStore};
use fanstore_compress::{CodecFamily, CodecId};

use crate::report::{fmt_f, md_table};

/// One measured durability mode (per-write sync or group commit).
#[derive(Debug, Clone)]
pub struct ModeStat {
    /// Appends per sync (1 = sync every write).
    pub commit_every: usize,
    /// Acknowledged appends per second.
    pub ops_per_s: f64,
    /// Logical value megabytes per second.
    pub mb_per_s: f64,
    /// Syncs the medium saw.
    pub syncs: u64,
    /// Median acknowledged-append latency (µs).
    pub p50_us: u64,
    /// Tail acknowledged-append latency (µs).
    pub p99_us: u64,
}

/// Flush + compaction accounting from the group-commit run.
#[derive(Debug, Clone)]
pub struct CompactionStat {
    /// Compaction runs triggered by the segment-count threshold.
    pub runs: u64,
    /// Segment bytes read by compaction.
    pub in_bytes: u64,
    /// Segment bytes written by compaction.
    pub out_bytes: u64,
    /// Superseded versions + tombstones + expired entries dropped.
    pub dropped: u64,
    /// Total media mutation bytes / logical value bytes — the write
    /// amplification of log + segments + manifests + compaction.
    pub write_amp: f64,
}

/// What one run of both durability modes measured.
#[derive(Debug, Clone)]
pub struct WalSummary {
    /// Appends per mode.
    pub ops: usize,
    /// Bytes per value.
    pub value_bytes: usize,
    /// Distinct keys (ops/keys overwrites per key feed compaction).
    pub keys: usize,
    /// Modelled fsync cost (µs).
    pub sync_cost_us: u64,
    /// Sync-every-write baseline.
    pub per_write_sync: ModeStat,
    /// Group-commit mode.
    pub group_commit: ModeStat,
    /// `group_commit.ops_per_s / per_write_sync.ops_per_s` — the CI
    /// release gate holds this ≥ 3.
    pub speedup: f64,
    /// Flush/compaction accounting (group-commit run).
    pub compaction: CompactionStat,
}

/// Deterministic compressible-ish value, position-dependent so
/// overwritten versions differ byte-for-byte.
fn value(op: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((op * 31) as u8).wrapping_add((j / 13) as u8)).collect()
}

/// Run `ops` puts over `keys` keys at one `commit_every`, returning the
/// mode stats plus the store's metrics registry and the media mutation
/// bytes (for the amplification accounting).
fn run_mode(
    ops: usize,
    keys: usize,
    value_bytes: usize,
    commit_every: usize,
    sync_cost: Duration,
    budget: usize,
) -> (ModeStat, MetricsRegistry, u64) {
    const PROBE: u64 = u64::MAX / 2;
    let registry = MetricsRegistry::new();
    let disk = RamMedia::new(sync_cost);
    let probe = CrashMedia::new(disk.clone() as Arc<dyn fanstore::wal::WalMedia>, PROBE);
    let cfg = WalConfig {
        // Store codec: this bench isolates sync amortisation, and the
        // inline flush would otherwise spend more wall on segment
        // compression than either mode spends on syncs.
        codec: CodecId::new(CodecFamily::Store, 0),
        memtable_budget: budget,
        commit_every,
        compact_min_segments: 4,
        sync_cost,
        ..WalConfig::default()
    };
    let (store, _) = WalStore::open(probe.clone(), cfg, &registry).expect("open on empty medium");

    let mut lat_us: Vec<u64> = Vec::with_capacity(ops);
    let t0 = Instant::now();
    for op in 0..ops {
        let key = format!("out/obj-{:04}.bin", op % keys);
        let t = Instant::now();
        store.put(&key, value(op, value_bytes)).expect("put");
        lat_us.push(t.elapsed().as_micros() as u64);
    }
    store.flush().expect("final flush");
    let wall_s = t0.elapsed().as_secs_f64();

    lat_us.sort_unstable();
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    let logical = (ops * value_bytes) as f64;
    let stat = ModeStat {
        commit_every,
        ops_per_s: ops as f64 / wall_s,
        mb_per_s: logical / 1e6 / wall_s,
        syncs: disk.syncs(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    };
    (stat, registry, PROBE - probe.remaining())
}

/// Run both durability modes and summarise. `quick` is the CI smoke
/// shape; the full shape is the one the release gate and EXPERIMENTS.md
/// measure.
pub fn measure(quick: bool) -> WalSummary {
    // Both shapes pick the memtable budget below `keys * value_bytes` —
    // the memtable is bounded by the live set under round-robin
    // overwrites, so a larger budget would never flush and compaction
    // would never trigger. The quick (debug smoke) shape also shrinks
    // the workload: the unoptimised per-append CPU cost would otherwise
    // drown the sync amortisation being measured.
    let (ops, value_bytes, keys, budget) =
        if quick { (600, 512, 64, 24 * 1024) } else { (4000, 2048, 256, 256 * 1024) };
    let sync_cost = Duration::from_micros(100);

    let (per_write, _, _) = run_mode(ops, keys, value_bytes, 1, sync_cost, budget);
    let (group, registry, media_bytes) = run_mode(ops, keys, value_bytes, 16, sync_cost, budget);

    let snapshot = registry.snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let speedup = group.ops_per_s / per_write.ops_per_s;
    WalSummary {
        ops,
        value_bytes,
        keys,
        sync_cost_us: sync_cost.as_micros() as u64,
        speedup,
        compaction: CompactionStat {
            runs: counter("wal.compact.runs"),
            in_bytes: counter("wal.compact.in_bytes"),
            out_bytes: counter("wal.compact.out_bytes"),
            dropped: counter("wal.compact.dropped"),
            write_amp: media_bytes as f64 / (ops * value_bytes) as f64,
        },
        per_write_sync: per_write,
        group_commit: group,
    }
}

/// Generate the markdown report.
pub fn run(quick: bool) -> String {
    let s = measure(quick);
    let mut out = format!(
        "## WAL write path — group commit vs per-write sync\n\n\
         {} puts of {} B over {} keys on an in-RAM medium with a modelled\n\
         {} µs fsync. Group commit batches {} appends per sync; the same\n\
         workload synced per write is the baseline. Write amplification is\n\
         total media mutation bytes (log + segments + manifests +\n\
         compaction rewrites) over logical value bytes.\n\n",
        s.ops, s.value_bytes, s.keys, s.sync_cost_us, s.group_commit.commit_every,
    );
    let row = |name: &str, m: &ModeStat| {
        vec![
            name.to_string(),
            m.commit_every.to_string(),
            format!("{:.0}", m.ops_per_s),
            fmt_f(m.mb_per_s),
            m.syncs.to_string(),
            m.p50_us.to_string(),
            m.p99_us.to_string(),
        ]
    };
    out.push_str(&md_table(
        &["mode", "commit every", "ops/s", "MB/s", "syncs", "p50 us", "p99 us"],
        &[row("per-write sync", &s.per_write_sync), row("group commit", &s.group_commit)],
    ));
    out.push_str(&format!(
        "\nGroup commit is {}x the per-write-sync throughput. Compaction ran {}\n\
         time(s), rewrote {} -> {} bytes dropping {} superseded entries;\n\
         end-to-end write amplification {}x.\n",
        fmt_f(s.speedup),
        s.compaction.runs,
        s.compaction.in_bytes,
        s.compaction.out_bytes,
        s.compaction.dropped,
        fmt_f(s.compaction.write_amp),
    ));
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// Latency percentiles come from wall-clock timing; concurrent
    /// measurements on a small CI box skew each other. Serialise.
    static MEASURE_LOCK: Mutex<()> = Mutex::new(());

    fn measured(quick: bool) -> WalSummary {
        let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        measure(quick)
    }

    /// The CI release gate: amortising the modelled fsync over 16-append
    /// batches must be worth ≥ 3x throughput on the full shape.
    /// Debug builds run the smoke shape against a sanity floor — the
    /// unoptimised frame/CRC path inflates per-append CPU cost, which
    /// narrows (but must not erase) the sync-amortisation win.
    #[test]
    fn group_commit_beats_per_write_sync_gate() {
        let (s, gate) =
            if cfg!(debug_assertions) { (measured(true), 1.5) } else { (measured(false), 3.0) };
        assert!(
            s.speedup >= gate,
            "group commit speedup {:.2} below the {gate}x gate \
             (per-write {:.0} ops/s, grouped {:.0} ops/s)",
            s.speedup,
            s.per_write_sync.ops_per_s,
            s.group_commit.ops_per_s,
        );
        // The structural half of the claim, timer-independent: group
        // commit must actually have amortised syncs.
        assert!(
            s.group_commit.syncs * 4 <= s.per_write_sync.syncs,
            "group commit did not amortise syncs: {} vs {}",
            s.group_commit.syncs,
            s.per_write_sync.syncs,
        );
    }

    #[test]
    fn overwrites_feed_compaction_and_amplification_is_sane() {
        let s = measured(true);
        assert!(s.compaction.runs > 0, "threshold compaction never ran: {s:?}");
        assert!(s.compaction.dropped > 0, "overwrites must drop superseded versions: {s:?}");
        // Amplification ≥ 1 by construction (every logical byte hits the
        // log once) and bounded by a generous sanity ceiling.
        assert!(
            s.compaction.write_amp >= 1.0 && s.compaction.write_amp < 20.0,
            "implausible write amplification: {s:?}"
        );
    }
}
