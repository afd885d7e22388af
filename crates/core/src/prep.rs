//! The data-preparation tool (paper §V-B).
//!
//! A standalone, multi-threaded step that runs once per dataset: list the
//! files, let worker threads compress them (one thread per available CPU,
//! each pulling the next unclaimed file), and concatenate the results into
//! partitions using the Table I representation. Results are put back in
//! file order before they are concatenated, so the partitions are
//! byte-identical whatever the thread count. Users may also designate a
//! broadcast set (e.g. the validation data) that every node will load in
//! full.

use fanstore_compress::registry::create;
use fanstore_compress::{Codec, CodecFamily, CodecId};
use rayon::prelude::*;

use crate::pack::PartitionBuilder;
use crate::stat::FileStat;

/// Configuration for [`prepare`].
#[derive(Debug, Clone)]
pub struct PrepConfig {
    /// Number of partitions to produce (one or more per node at load
    /// time).
    pub partitions: usize,
    /// Compressor applied to every file. The compressor-selection
    /// algorithm (`fanstore-select`) picks this value per dataset.
    pub codec: CodecId,
    /// If a file's compressed form is not smaller than the original, store
    /// it raw instead (the pack records `store` for that file, so mixed
    /// partitions decode correctly). Matches lzbench-style behaviour on
    /// incompressible data such as ImageNet.
    pub store_if_incompressible: bool,
    /// When non-zero, files larger than this are packed as range-chunked
    /// FCHK containers (chunks of this size, each independently
    /// compressed and CRC'd) so readers can fetch arbitrary byte ranges
    /// without pulling the whole file. 0 = whole-file packing (legacy).
    pub chunk_size: usize,
    /// When non-zero, every file is packed as a progressive FCHK
    /// container with this many fidelity tiers (clamped to 1..=32): a
    /// prefix of tiers decodes to a coarse approximation, all tiers are
    /// bit-exact. Takes precedence over `chunk_size`. 0 = off.
    pub progressive_tiers: u8,
}

impl Default for PrepConfig {
    fn default() -> Self {
        PrepConfig {
            partitions: 1,
            codec: CodecId::new(CodecFamily::Lz4Hc, 9),
            store_if_incompressible: true,
            chunk_size: 0,
            progressive_tiers: 0,
        }
    }
}

/// Output of [`prepare`].
#[derive(Debug, Clone)]
pub struct Packed {
    /// Partition byte streams, ready to scatter over nodes.
    pub partitions: Vec<Vec<u8>>,
    /// Broadcast partition (validation set), loaded by every node.
    pub broadcast: Option<Vec<u8>>,
    /// Total input bytes.
    pub input_bytes: usize,
    /// Total packed bytes (including per-entry overhead).
    pub packed_bytes: usize,
}

impl Packed {
    /// Effective storage compression ratio: input bytes over packed bytes.
    /// Includes the pack overhead and the block-padding savings from
    /// concatenation, which is why tiny-file datasets (Tokamak) beat their
    /// per-file ratios here (paper §VII-E2).
    pub fn ratio(&self) -> f64 {
        self.input_bytes as f64 / self.packed_bytes.max(1) as f64
    }
}

/// Compress one file; fall back to `store` when compression does not pay.
fn pack_one(codec: &dyn Codec, store_fallback: bool, data: &[u8]) -> (CodecId, Vec<u8>) {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    codec.compress(data, &mut out);
    if store_fallback && out.len() >= data.len() {
        (CodecId::new(CodecFamily::Store, 0), data.to_vec())
    } else {
        (codec.id(), out)
    }
}

/// Pack `files` into partitions. Files are assigned to partitions
/// round-robin (the paper divides the file list into chunks processed
/// round-robin by worker threads); compression runs data-parallel, on
/// `std::thread::available_parallelism()` threads.
pub fn prepare(files: Vec<(String, Vec<u8>)>, cfg: &PrepConfig) -> Packed {
    let nparts = cfg.partitions.max(1);
    let codec = create(cfg.codec).expect("valid codec id");
    let input_bytes: usize = files.iter().map(|(_, d)| d.len()).sum();

    // Data-parallel compression pass.
    let compressed: Vec<(String, FileStat, CodecId, Vec<u8>)> = files
        .into_par_iter()
        .enumerate()
        .map(|(i, (path, data))| {
            let mut stat = FileStat::regular(i as u64 + 1, data.len() as u64);
            stat.owner_rank = (i % nparts) as u32;
            let (used, packed) = if cfg.progressive_tiers > 0 {
                (crate::pack::CHUNKED, crate::pack::build_progressive(&data, cfg.progressive_tiers))
            } else if cfg.chunk_size > 0 && data.len() > cfg.chunk_size {
                (crate::pack::CHUNKED, crate::pack::build_chunked(&data, cfg.chunk_size, cfg.codec))
            } else {
                pack_one(codec.as_ref(), cfg.store_if_incompressible, &data)
            };
            (path, stat, used, packed)
        })
        .collect();

    // Serial concatenation into partitions (cheap: memcpy only).
    let mut builders: Vec<PartitionBuilder> =
        (0..nparts).map(|_| PartitionBuilder::new()).collect();
    for (i, (path, stat, used, packed)) in compressed.into_iter().enumerate() {
        builders[i % nparts].push(&path, used, &stat, &packed);
    }
    let partitions: Vec<Vec<u8>> = builders.into_iter().map(PartitionBuilder::finish).collect();
    let packed_bytes = partitions.iter().map(Vec::len).sum();
    Packed { partitions, broadcast: None, input_bytes, packed_bytes }
}

/// Pack a broadcast set (e.g. validation data): a single partition every
/// node loads in full (paper §V-B).
pub fn prepare_broadcast(files: Vec<(String, Vec<u8>)>, cfg: &PrepConfig) -> Vec<u8> {
    let mut one = cfg.clone();
    one.partitions = 1;
    prepare(files, &one).partitions.into_iter().next().expect("one partition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::parse_partition;

    fn sample_files(n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let data = format!("file number {i} ").repeat(400 + i).into_bytes();
                (format!("train/f{i:03}.bin"), data)
            })
            .collect()
    }

    #[test]
    fn round_robin_partitioning() {
        let packed = prepare(sample_files(10), &PrepConfig { partitions: 3, ..Default::default() });
        assert_eq!(packed.partitions.len(), 3);
        let counts: Vec<usize> =
            packed.partitions.iter().map(|p| parse_partition(p).unwrap().len()).collect();
        assert_eq!(counts, vec![4, 3, 3]);
    }

    #[test]
    fn entries_decode_back_to_original() {
        let files = sample_files(6);
        let cfg = PrepConfig { partitions: 2, ..Default::default() };
        let packed = prepare(files.clone(), &cfg);
        let mut restored: Vec<(String, Vec<u8>)> = Vec::new();
        for p in &packed.partitions {
            for e in parse_partition(p).unwrap() {
                let codec = create(e.codec).unwrap();
                let data = fanstore_compress::decompress_to_vec(
                    codec.as_ref(),
                    &e.data,
                    e.stat.size as usize,
                )
                .unwrap();
                restored.push((e.path, data));
            }
        }
        restored.sort();
        let mut expect = files;
        expect.sort();
        assert_eq!(restored, expect);
    }

    #[test]
    fn compressible_data_shrinks() {
        let packed = prepare(sample_files(8), &PrepConfig::default());
        assert!(packed.ratio() > 2.0, "ratio {}", packed.ratio());
    }

    #[test]
    fn incompressible_data_stored_raw() {
        let mut x = 123456789u64;
        let noise: Vec<u8> = (0..32768)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let packed =
            prepare(vec![("noise.jpg".to_string(), noise.clone())], &PrepConfig::default());
        let entries = parse_partition(&packed.partitions[0]).unwrap();
        assert_eq!(entries[0].codec.family(), Some(CodecFamily::Store));
        assert_eq!(entries[0].data, noise);
    }

    #[test]
    fn owner_rank_recorded() {
        let packed = prepare(sample_files(4), &PrepConfig { partitions: 2, ..Default::default() });
        for (p, part) in packed.partitions.iter().enumerate() {
            for e in parse_partition(part).unwrap() {
                assert_eq!(e.stat.owner_rank as usize, p);
            }
        }
    }

    #[test]
    fn broadcast_is_single_partition() {
        let b = prepare_broadcast(sample_files(5), &PrepConfig::default());
        assert_eq!(parse_partition(&b).unwrap().len(), 5);
    }

    #[test]
    fn thread_count_does_not_change_a_byte() {
        let files: Vec<(String, Vec<u8>)> = (0..13)
            .map(|i| {
                let floats =
                    (0..700 + 40 * i).flat_map(|j| ((i * j) as f32 * 0.37).sin().to_le_bytes());
                (format!("train/f{i:03}.f32"), floats.collect())
            })
            .collect();
        let pool = |n| rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("pool");
        for cfg in [
            PrepConfig { partitions: 3, ..Default::default() },
            PrepConfig { partitions: 2, chunk_size: 1024, ..Default::default() },
            PrepConfig { partitions: 2, progressive_tiers: 4, ..Default::default() },
        ] {
            let one = pool(1).install(|| prepare(files.clone(), &cfg));
            for threads in [2, 5, 32] {
                let many = pool(threads).install(|| prepare(files.clone(), &cfg));
                assert_eq!(many.partitions, one.partitions, "{threads} threads, {cfg:?}");
                assert_eq!(many.packed_bytes, one.packed_bytes);
            }
        }
    }

    #[test]
    fn empty_input_produces_empty_partitions() {
        let packed = prepare(Vec::new(), &PrepConfig { partitions: 2, ..Default::default() });
        assert_eq!(packed.partitions.len(), 2);
        for p in &packed.partitions {
            assert!(parse_partition(p).unwrap().is_empty());
        }
    }
}
