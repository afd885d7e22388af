//! Every name the benchmark emits, with its unit. `BENCHMARK.json` at the
//! repository root declares the same names; a test holds the two equal.

use crate::workloads::Workload;

/// Why each workload exists, one line each.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::ColdEpoch => {
            "128 KiB lz4hc files, 8x the cache, prefetched in shuffled epochs: every read decodes and half cross the fabric in GET_MANY batches"
        }
        Workload::WarmEpoch => {
            "32 KiB files stored raw in a cache that holds them all, POSIX open/read/close: bypasses decode, fabric and daemon; exercises the cache hit path and per-call client cost"
        }
        Workload::SmallFiles => {
            "1.2 KB files over the single-GET path with a 1 MiB cache: per-message cost of fabric, daemon and metadata with almost no bytes"
        }
        Workload::RangeReads => {
            "5 % windows of 1 MiB files packed in 64 KiB chunks: chunk-table parse, PARTIAL frames and partial cache residency"
        }
        Workload::DurableWrites => {
            "16 KiB writes, unlinks and 256 KiB checkpoints through the WAL with a modelled 100 us fsync, checked after a restart: the write path beside the read paths"
        }
    }
}

pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("mb_per_s", "MB/s"),
    ("step_p50_us", "us"),
    ("step_p90_us", "us"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("rss_mb", "MB"),
];

pub const PER_LAYER: [(&str, &str); 65] = [
    ("compress.decode.mb_per_s", "MB/s"),
    ("compress.decode.us_per_file", "us"),
    ("compress.encode.mb_per_s", "MB/s"),
    ("compress.crc32.mb_per_s", "MB/s"),
    ("compress.ratio", "ratio"),
    ("prep.prepare.mb_per_s", "MB/s"),
    ("prep.prepare.s", "s"),
    ("pack.parse_partition.us_per_entry", "us"),
    ("pack.chunk_table.parse_ns", "ns"),
    ("pack.decode_chunk.mb_per_s", "MB/s"),
    ("meta.enumerate.us_per_file", "us"),
    ("meta.stat.ns", "ns"),
    ("node.load_partition.mb_per_s", "MB/s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_op", "ratio"),
    ("cache.open_hit.ns", "ns"),
    ("cache.insert_evict.ns", "ns"),
    ("bufpool.hit_ratio", "ratio"),
    ("bufpool.take_put.ns", "ns"),
    ("mpisim.rpc.rtt_us_64b", "us"),
    ("mpisim.rpc.rtt_us_64k", "us"),
    ("mpisim.msgs_per_op", "ratio"),
    ("mpisim.wire_bytes_per_user_byte", "ratio"),
    ("daemon.serve.p50_us", "us"),
    ("daemon.queue_wait.p50_us", "us"),
    ("daemon.busy_share", "ratio"),
    ("daemon.served.requests", "count"),
    ("client.local_read.p50_us", "us"),
    ("client.remote_read.p50_us", "us"),
    ("client.rpc.p50_us", "us"),
    ("client.decode.busy_share", "ratio"),
    ("client.posix_hit.ns", "ns"),
    ("client.range.local_p50_us", "us"),
    ("client.range.remote_p50_us", "us"),
    ("client.write_whole.p50_us", "us"),
    ("client.write_whole.max_ms", "ms"),
    ("attrib.admission.share", "ratio"),
    ("attrib.queue.share", "ratio"),
    ("attrib.network.share", "ratio"),
    ("attrib.serve.share", "ratio"),
    ("attrib.decode.share", "ratio"),
    ("attrib.cache.share", "ratio"),
    ("attrib.residual.share", "ratio"),
    ("attrib.coverage", "ratio"),
    ("wal.put.p50_us", "us"),
    ("wal.flush.ms_per_mib", "ms"),
    ("wal.compact.ms_per_mib", "ms"),
    ("wal.syncs_per_write", "ratio"),
    ("wal.flush.count", "count"),
    ("wal.compact.runs", "count"),
    ("wal.write_amp", "ratio"),
    ("wal.replay.ms", "ms"),
    ("ckpt.put.p50_ms", "ms"),
    ("ckpt.recover.ms", "ms"),
    ("ckpt.stored_per_raw", "ratio"),
    ("train.prefetch.ready_wait_share", "ratio"),
    ("train.prefetch.feed_wait_share", "ratio"),
    ("train.prefetch.work_wait_share", "ratio"),
    ("train.prefetch.emit_wait_share", "ratio"),
    ("select.model_over_measured", "ratio"),
    ("bench.machine.memcpy_mb_per_s", "MB/s"),
    ("bench.machine.handoff_us", "us"),
    ("bench.step.p99_us", "us"),
    ("bench.trace.overhead_share", "ratio"),
    ("bench.trace.unexplained_share", "ratio"),
];
