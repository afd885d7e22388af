//! The checkpoint store proper: put / recover / verify / gc over a
//! [`FsClient`].
//!
//! A store is a view of one rank's checkpoint lineage under
//! `ckpt/<tag>/rank<owner>/`: generation `g` consists of segment objects
//! `gen<g>/seg<k>` plus the manifest `gen<g>.mfst`, written last as the
//! atomic publish point. Segments and manifest are pushed to the owner's
//! ring replicas so the lineage survives the owner's death; recovery
//! walks generations newest → oldest and loads the newest one whose
//! manifest, segments, and delta base chain all CRC-verify.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use fanstore_compress::crc32::crc32;
use fanstore_compress::{compress_to_vec, registry, CodecFamily, CodecId};

use crate::ckpt::delta::{chunk_of, decode_chunk_delta, encode_chunk_delta};
use crate::ckpt::frame::{decode_segment, encode_frame, FLAG_DELTA};
use crate::ckpt::manifest::{Manifest, SegmentMeta};
use crate::client::FsClient;
use crate::metrics::{now_us, Counter, Histogram};
use crate::placement::replicas_of;
use crate::FsError;

/// Checkpoint store configuration.
#[derive(Debug, Clone)]
pub struct CkptConfig {
    /// Lineage name; the store lives under `ckpt/<tag>/rank<owner>/`.
    pub tag: String,
    /// Chunk size the payload is split into (each chunk = one frame).
    pub chunk_size: usize,
    /// Chunks per segment object.
    pub chunks_per_segment: usize,
    /// Codec for chunk payloads (chunks that do not shrink are stored
    /// raw regardless).
    pub codec: CodecId,
    /// Force a full (non-delta) generation whenever `generation %
    /// full_every == 0`, bounding recovery chain length; every other
    /// generation delta-encodes each chunk against the previous one when
    /// that is smaller. 0 = never force; 1 = every generation full.
    pub full_every: u64,
    /// Ring replicas each segment + manifest is pushed to (0 = none).
    pub replicas: usize,
    /// GC retention: keep the newest `keep_last` generations plus their
    /// delta bases. 0 disables GC.
    pub keep_last: usize,
}

impl Default for CkptConfig {
    fn default() -> Self {
        CkptConfig {
            tag: "default".to_string(),
            chunk_size: 64 * 1024,
            chunks_per_segment: 16,
            codec: CodecId::new(CodecFamily::Lz4Hc, 6),
            full_every: 4,
            replicas: 1,
            keep_last: 0,
        }
    }
}

/// What one [`CheckpointStore::put`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutReport {
    /// Generation written.
    pub generation: u64,
    /// Base generation the delta frames reference (`None` = full).
    pub base: Option<u64>,
    /// Payload length.
    pub raw_bytes: u64,
    /// Stored segment bytes (frames + headers, before replication).
    pub stored_bytes: u64,
    /// Chunks written.
    pub chunks: u64,
    /// Chunks that chose the delta encoding.
    pub delta_chunks: u64,
    /// Segment objects written.
    pub segments: usize,
    /// Replica pushes that failed (non-fatal: the local copy published).
    pub replicate_failures: usize,
}

/// Result of a [`CheckpointStore::recover`] scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// No generations exist at all: a genuine fresh start.
    Fresh,
    /// The newest verifiable generation.
    Loaded {
        /// Generation that loaded.
        generation: u64,
        /// Reconstructed checkpoint payload.
        payload: Vec<u8>,
        /// Newer generations skipped as torn/corrupt, newest first.
        skipped: Vec<u64>,
    },
}

/// What [`CheckpointStore::verify`] proved about a generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Generation verified.
    pub generation: u64,
    /// Its delta base (`None` = full).
    pub base: Option<u64>,
    /// Reconstructed payload length.
    pub raw_bytes: u64,
    /// Stored segment bytes per its manifest.
    pub stored_bytes: u64,
    /// Chunk count per its manifest.
    pub chunks: u64,
    /// Segment count.
    pub segments: usize,
    /// Delta base chain walked during reconstruction (nearest first).
    pub chain: Vec<u64>,
}

/// What one [`CheckpointStore::gc`] pass removed and kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Generations removed, oldest first.
    pub removed: Vec<u64>,
    /// Generations kept, oldest first.
    pub kept: Vec<u64>,
}

/// Resolved instruments (`ckpt.*` namespace).
struct CkptMetrics {
    put_latency: Arc<Histogram>,
    put_bytes_raw: Arc<Counter>,
    put_bytes_stored: Arc<Counter>,
    put_chunks: Arc<Counter>,
    put_delta_chunks: Arc<Counter>,
    replicate_failures: Arc<Counter>,
    recover_latency: Arc<Histogram>,
    recover_fallbacks: Arc<Counter>,
    recover_torn: Arc<Counter>,
    gc_removed: Arc<Counter>,
}

impl CkptMetrics {
    fn resolve(fs: &FsClient) -> CkptMetrics {
        let m = &fs.state().metrics;
        CkptMetrics {
            put_latency: m.histogram("ckpt.put.latency_us"),
            put_bytes_raw: m.counter("ckpt.put.bytes_raw"),
            put_bytes_stored: m.counter("ckpt.put.bytes_stored"),
            put_chunks: m.counter("ckpt.put.chunks"),
            put_delta_chunks: m.counter("ckpt.put.delta_chunks"),
            replicate_failures: m.counter("ckpt.replicate.failures"),
            recover_latency: m.histogram("ckpt.recover.latency_us"),
            recover_fallbacks: m.counter("ckpt.recover.fallbacks"),
            recover_torn: m.counter("ckpt.recover.torn"),
            gc_removed: m.counter("ckpt.gc.removed"),
        }
    }
}

/// A durable, compressed, replicated checkpoint store for one rank's
/// lineage (see the [module docs](crate::ckpt)).
pub struct CheckpointStore<'a> {
    fs: &'a FsClient,
    cfg: CkptConfig,
    dir: String,
    /// The owner's ring replicas other than this rank: where every object
    /// is pushed and unlinked beside the local copy (none without
    /// replication).
    replicas: Vec<usize>,
    /// Previous generation's payload, the delta base for the next put
    /// (seeded by [`recover`](Self::recover) after a restart).
    last: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
    m: CkptMetrics,
}

impl<'a> CheckpointStore<'a> {
    /// A store for this rank's own lineage (the writing side).
    pub fn new(fs: &'a FsClient, cfg: CkptConfig) -> CheckpointStore<'a> {
        let owner = fs.rank();
        CheckpointStore::for_rank(fs, cfg, owner)
    }

    /// A store viewing `owner`'s lineage from any rank (a replica
    /// recovering a dead peer's checkpoint, or the CLI inspecting one).
    pub fn for_rank(fs: &'a FsClient, cfg: CkptConfig, owner: usize) -> CheckpointStore<'a> {
        let dir = format!("ckpt/{}/rank{owner}", cfg.tag);
        let m = CkptMetrics::resolve(fs);
        let replicas = if cfg.replicas == 0 || fs.nodes() < 2 {
            Vec::new()
        } else {
            let ring = replicas_of(owner, fs.nodes(), cfg.replicas).into_iter();
            ring.filter(|&r| r != fs.rank()).collect()
        };
        CheckpointStore { fs, cfg, dir, replicas, last: Mutex::new(None), m }
    }

    /// The lineage directory, `ckpt/<tag>/rank<owner>`.
    pub fn dir(&self) -> &str {
        &self.dir
    }

    /// Store configuration.
    pub fn config(&self) -> &CkptConfig {
        &self.cfg
    }

    /// Manifest path of generation `g`.
    pub fn manifest_path(&self, g: u64) -> String {
        format!("{}/gen{g:08}.mfst", self.dir)
    }

    /// Segment directory of generation `g`.
    pub fn gen_dir(&self, g: u64) -> String {
        format!("{}/gen{g:08}", self.dir)
    }

    /// Published generations, oldest first (a generation exists iff its
    /// manifest does — segments without one were never committed).
    pub fn generations(&self) -> Result<Vec<u64>, FsError> {
        let mut stream = match self.fs.opendir(&self.dir) {
            Ok(s) => s,
            // No lineage directory at all: nothing was ever checkpointed
            // here. Any other error propagates — "can't tell" must never
            // read as "fresh start".
            Err(FsError::NotFound(_)) => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut gens: Vec<u64> = Vec::new();
        while let Some(name) = stream.next_entry() {
            if let Some(g) = name
                .strip_prefix("gen")
                .and_then(|n| n.strip_suffix(".mfst"))
                .and_then(|n| n.parse().ok())
            {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        gens.dedup();
        Ok(gens)
    }

    /// Read and CRC-verify generation `g`'s manifest.
    pub fn manifest(&self, g: u64) -> Result<Manifest, FsError> {
        Manifest::decode(&self.fs.read_whole(&self.manifest_path(g))?)
    }

    /// Write generation `g`: chunk, (maybe) delta-encode, compress,
    /// frame into segments, replicate, and publish the manifest last.
    pub fn put(&self, generation: u64, payload: &[u8]) -> Result<PutReport, FsError> {
        let start = now_us();
        let cs = self.cfg.chunk_size.max(1);
        let force_full = self.cfg.full_every > 0 && generation.is_multiple_of(self.cfg.full_every);
        let base: Option<(u64, Arc<Vec<u8>>)> = if !force_full {
            self.last.lock().expect("ckpt last").clone().filter(|(g, _)| *g < generation)
        } else {
            None
        };
        let codec = registry::create(self.cfg.codec)
            .map_err(|e| FsError::Corrupt(format!("ckpt codec: {e}")))?;
        let store_codec = CodecId::new(CodecFamily::Store, 0);

        // Encode every chunk into frames, cutting segment blobs as we go.
        let per_seg = self.cfg.chunks_per_segment.max(1);
        let mut blobs: Vec<(String, Vec<u8>)> = Vec::new();
        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut seg = Vec::new();
        let mut seg_chunks = 0u32;
        let mut chunks = 0u64;
        let mut delta_chunks = 0u64;
        let mut cut = |seg: &mut Vec<u8>, seg_chunks: &mut u32| {
            let name = format!("seg{:04}", blobs.len());
            segments.push(SegmentMeta {
                name: name.clone(),
                chunks: *seg_chunks,
                bytes: seg.len() as u64,
                crc: crc32(seg),
            });
            blobs.push((name, std::mem::take(seg)));
            *seg_chunks = 0;
        };
        for (idx, chunk) in payload.chunks(cs).enumerate() {
            // Smallest of raw, full and delta, the earlier winning a tie.
            // A chunk its base already holds skips the full attempt: its
            // delta is one run of zeros, which no full encoding beats. Only
            // a tie can come out differently for that — a chunk that is
            // itself one repeated byte used to keep its full frame.
            let unchanged = base.as_ref().is_some_and(|(_, b)| chunk_of(b, cs, idx) == chunk);
            let (mut flags, mut cid, mut best) = (0u8, store_codec, Cow::Borrowed(chunk));
            if !unchanged {
                let full = compress_to_vec(codec.as_ref(), chunk);
                if full.len() < best.len() {
                    (cid, best) = (self.cfg.codec, Cow::Owned(full));
                }
            }
            if let Some((_, base)) = &base {
                let d = encode_chunk_delta(base, chunk, cs, idx);
                let dc = compress_to_vec(codec.as_ref(), &d);
                if dc.len() < best.len() {
                    (flags, cid, best) = (FLAG_DELTA, self.cfg.codec, Cow::Owned(dc));
                    delta_chunks += 1;
                }
            }
            encode_frame(&mut seg, flags, cid, chunk.len() as u32, &best);
            chunks += 1;
            seg_chunks += 1;
            if seg_chunks as usize == per_seg {
                cut(&mut seg, &mut seg_chunks);
            }
        }
        if seg_chunks > 0 {
            cut(&mut seg, &mut seg_chunks);
        }
        let stored_bytes: u64 = segments.iter().map(|s| s.bytes).sum();

        // Segments first, manifest last: the manifest's appearance is the
        // commit, so a crash anywhere in this loop publishes nothing.
        let gen_dir = self.gen_dir(generation);
        let mut replicate_failures = 0usize;
        for (name, blob) in &blobs {
            let path = format!("{gen_dir}/{name}");
            self.fs.write_whole(&path, blob)?;
            replicate_failures += self.replicate(&path, blob);
        }
        let manifest = Manifest {
            generation,
            base: base.as_ref().map(|(g, _)| *g),
            chunk_size: cs as u32,
            raw_bytes: payload.len() as u64,
            stored_bytes,
            segments,
        };
        let mbytes = manifest.encode();
        let mpath = self.manifest_path(generation);
        self.fs.write_whole(&mpath, &mbytes)?;
        replicate_failures += self.replicate(&mpath, &mbytes);

        *self.last.lock().expect("ckpt last") = Some((generation, Arc::new(payload.to_vec())));
        self.m.put_latency.record(now_us().saturating_sub(start));
        self.m.put_bytes_raw.add(payload.len() as u64);
        self.m.put_bytes_stored.add(stored_bytes);
        self.m.put_chunks.add(chunks);
        self.m.put_delta_chunks.add(delta_chunks);
        self.m.replicate_failures.add(replicate_failures as u64);
        Ok(PutReport {
            generation,
            base: manifest.base,
            raw_bytes: payload.len() as u64,
            stored_bytes,
            chunks,
            delta_chunks,
            segments: blobs.len(),
            replicate_failures,
        })
    }

    /// Push one object to the owner's ring replicas; returns the number
    /// of failed pushes (non-fatal: the local copy already published).
    fn replicate(&self, path: &str, data: &[u8]) -> usize {
        self.replicas.iter().filter(|&&r| self.fs.put_remote(r, path, data).is_err()).count()
    }

    /// Load the newest verifiable generation, skipping torn or corrupt
    /// ones. [`Recovery::Fresh`] means *no generations exist*; if
    /// generations exist but none loads, that is an error — a silent
    /// restart from zero would discard recoverable work.
    pub fn recover(&self) -> Result<Recovery, FsError> {
        let start = now_us();
        let gens = self.generations()?;
        if gens.is_empty() {
            return Ok(Recovery::Fresh);
        }
        let mut memo = HashMap::new();
        let mut skipped = Vec::new();
        let mut last_err = None;
        for &g in gens.iter().rev() {
            match self.load_generation(g, &mut memo, 0) {
                Ok(arc) => {
                    self.m.recover_latency.record(now_us().saturating_sub(start));
                    self.m.recover_fallbacks.add(skipped.len() as u64);
                    let payload = arc.as_ref().clone();
                    *self.last.lock().expect("ckpt last") = Some((g, arc));
                    return Ok(Recovery::Loaded { generation: g, payload, skipped });
                }
                Err(e) => {
                    if matches!(e, FsError::Corrupt(_)) {
                        self.m.recover_torn.inc();
                    }
                    skipped.push(g);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("generations were non-empty"))
    }

    /// Fully verify generation `g` (manifest, every segment CRC, every
    /// frame CRC, delta chain, reconstructed length).
    pub fn verify(&self, g: u64) -> Result<VerifyReport, FsError> {
        let manifest = self.manifest(g)?;
        let mut memo = HashMap::new();
        let payload = self.load_generation(g, &mut memo, 0)?;
        let mut chain = Vec::new();
        let mut cur = manifest.base;
        while let Some(b) = cur {
            chain.push(b);
            cur = self.manifest(b)?.base;
        }
        Ok(VerifyReport {
            generation: g,
            base: manifest.base,
            raw_bytes: payload.len() as u64,
            stored_bytes: manifest.stored_bytes,
            chunks: manifest.segments.iter().map(|s| u64::from(s.chunks)).sum(),
            segments: manifest.segments.len(),
            chain,
        })
    }

    /// Reconstruct generation `g`'s payload, CRC-verifying everything and
    /// recursively loading its delta base. `memo` caches payloads across
    /// the recovery scan so a shared base decodes once.
    fn load_generation(
        &self,
        g: u64,
        memo: &mut HashMap<u64, Arc<Vec<u8>>>,
        depth: usize,
    ) -> Result<Arc<Vec<u8>>, FsError> {
        if let Some(p) = memo.get(&g) {
            return Ok(Arc::clone(p));
        }
        if depth > 64 {
            return Err(FsError::Corrupt(format!("generation {g}: delta chain too deep")));
        }
        let manifest = self.manifest(g)?;
        if manifest.generation != g {
            return Err(FsError::Corrupt(format!(
                "manifest gen{g:08} claims generation {}",
                manifest.generation
            )));
        }
        let base = match manifest.base {
            Some(b) if b >= g => {
                return Err(FsError::Corrupt(format!("generation {g}: base {b} is not older")));
            }
            Some(b) => Some(self.load_generation(b, memo, depth + 1)?),
            None => None,
        };
        let cs = manifest.chunk_size as usize;
        let mut out = Vec::with_capacity(manifest.raw_bytes as usize);
        let mut chunk_index = 0usize;
        for sm in &manifest.segments {
            let path = format!("{}/{}", self.gen_dir(g), sm.name);
            let bytes = self.fs.read_whole(&path)?;
            if bytes.len() as u64 != sm.bytes || crc32(&bytes) != sm.crc {
                return Err(FsError::Corrupt(format!(
                    "{path}: segment does not match its manifest"
                )));
            }
            let frames = decode_segment(&bytes)?;
            if frames.len() != sm.chunks as usize {
                return Err(FsError::Corrupt(format!(
                    "{path}: {} frames, manifest says {}",
                    frames.len(),
                    sm.chunks
                )));
            }
            for f in frames {
                let raw = self.fs.state().decompress_timed(
                    f.codec,
                    &f.payload,
                    f.raw_len as usize,
                    &path,
                )?;
                if f.is_delta() {
                    let b = base.as_ref().ok_or_else(|| {
                        FsError::Corrupt(format!("{path}: delta frame in a full generation"))
                    })?;
                    out.extend_from_slice(&decode_chunk_delta(b, &raw, cs, chunk_index));
                } else {
                    out.extend_from_slice(&raw);
                }
                // The frame scratch came from the node's pool; hand it
                // back so the next chunk decodes allocation-free.
                self.fs.state().pool.put(raw);
                chunk_index += 1;
            }
        }
        if out.len() as u64 != manifest.raw_bytes {
            return Err(FsError::Corrupt(format!(
                "generation {g}: reconstructed {} bytes, manifest says {}",
                out.len(),
                manifest.raw_bytes
            )));
        }
        let arc = Arc::new(out);
        memo.insert(g, Arc::clone(&arc));
        Ok(arc)
    }

    /// Remove generations beyond the newest `keep_last`, preserving any
    /// older generation still referenced as a delta base. Manifests are
    /// unlinked *first* (unpublishing the generation), then segments, so
    /// a crash mid-GC leaves orphan segments, never a manifest naming
    /// missing ones.
    pub fn gc(&self) -> Result<GcReport, FsError> {
        let gens = self.generations()?;
        if self.cfg.keep_last == 0 || gens.len() <= self.cfg.keep_last {
            return Ok(GcReport { removed: Vec::new(), kept: gens });
        }
        let mut keep: BTreeSet<u64> =
            gens[gens.len() - self.cfg.keep_last..].iter().copied().collect();
        let mut frontier: Vec<u64> = keep.iter().copied().collect();
        while let Some(g) = frontier.pop() {
            if let Ok(m) = self.manifest(g) {
                if let Some(b) = m.base {
                    if keep.insert(b) {
                        frontier.push(b);
                    }
                }
            }
        }
        let removed: Vec<u64> = gens.iter().copied().filter(|g| !keep.contains(g)).collect();
        for &g in &removed {
            // Enumerate segments from the directory, not the manifest, so
            // an unreadable manifest can't strand its segments.
            let gen_dir = self.gen_dir(g);
            let mut seg_names: Vec<String> = Vec::new();
            if let Ok(mut stream) = self.fs.opendir(&gen_dir) {
                while let Some(name) = stream.next_entry() {
                    seg_names.push(name.to_string());
                }
            }
            let mpath = self.manifest_path(g);
            let _ = self.fs.unlink(&mpath);
            for &r in &self.replicas {
                let _ = self.fs.unlink_remote(r, &mpath);
            }
            for name in seg_names {
                let path = format!("{gen_dir}/{name}");
                let _ = self.fs.unlink(&path);
                for &r in &self.replicas {
                    let _ = self.fs.unlink_remote(r, &path);
                }
            }
            self.m.gc_removed.inc();
        }
        let kept: Vec<u64> = gens.into_iter().filter(|g| keep.contains(g)).collect();
        Ok(GcReport { removed, kept })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, FanStore};
    use crate::prep::{prepare, PrepConfig};

    fn partitions(n: usize) -> Vec<Vec<u8>> {
        let files =
            vec![("train/seed.bin".to_string(), b"seed data for the cluster ".repeat(8).to_vec())];
        prepare(files, &PrepConfig { partitions: n, ..Default::default() }).partitions
    }

    fn small_cfg() -> CkptConfig {
        CkptConfig {
            tag: "test".to_string(),
            chunk_size: 1024,
            chunks_per_segment: 4,
            full_every: 0,
            replicas: 0,
            ..Default::default()
        }
    }

    /// A payload that evolves slightly per generation, like model weights
    /// between epochs: mostly identical bytes, sparse drift.
    fn gen_payload(g: u64) -> Vec<u8> {
        (0..8000usize)
            .map(|i| {
                let base = (i * 31) as u8;
                if i.is_multiple_of(97) {
                    base.wrapping_add(g as u8)
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn delta_chain_roundtrips_three_generations() {
        FanStore::run(ClusterConfig::default(), partitions(1), |fs| {
            let store = CheckpointStore::new(fs, small_cfg());
            let payloads: Vec<Vec<u8>> = (1..=3).map(gen_payload).collect();
            let mut reports = Vec::new();
            for (i, p) in payloads.iter().enumerate() {
                reports.push(store.put(i as u64 + 1, p).unwrap());
            }
            assert_eq!(reports[0].base, None, "first generation has no base");
            assert_eq!(reports[1].base, Some(1));
            assert_eq!(reports[2].base, Some(2));
            assert!(reports[2].delta_chunks > 0, "sparse drift must pick deltas");
            assert!(
                reports[2].stored_bytes < reports[0].stored_bytes,
                "delta generation must be smaller than the full one ({} vs {})",
                reports[2].stored_bytes,
                reports[0].stored_bytes
            );
            // A cold store (no cached base — the restart case) must
            // reconstruct the whole chain byte-identically.
            let cold = CheckpointStore::new(fs, small_cfg());
            match cold.recover().unwrap() {
                Recovery::Loaded { generation, payload, skipped } => {
                    assert_eq!(generation, 3);
                    assert_eq!(payload, payloads[2], "3-gen delta chain roundtrips exactly");
                    assert!(skipped.is_empty());
                }
                Recovery::Fresh => panic!("three generations were published"),
            }
            let v = cold.verify(3).unwrap();
            assert_eq!(v.chain, vec![2, 1], "verify walks the base chain");
            assert_eq!(v.raw_bytes, payloads[2].len() as u64);
        });
    }

    #[test]
    fn unchanged_chunks_are_framed_as_deltas_without_a_full_attempt() {
        FanStore::run(ClusterConfig::default(), partitions(1), |fs| {
            let store = CheckpointStore::new(fs, small_cfg());
            // Eight 1 KiB chunks: text, noise that no codec shrinks, and a
            // chunk of one repeated byte — the tie the shortcut decides
            // the other way.
            let mut first = gen_payload(1);
            first.truncate(8 * 1024 - 100);
            let mut x = 0x9E37_79B9u32;
            for b in &mut first[1024..2048] {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *b = (x >> 24) as u8;
            }
            first[2048..3072].fill(0x5A);
            store.put(1, &first).unwrap();
            // Generation 2 changes one byte of chunk 4 and the short tail.
            let mut second = first.clone();
            second[4 * 1024 + 7] ^= 0xFF;
            *second.last_mut().unwrap() ^= 1;
            let report = store.put(2, &second).unwrap();
            assert_eq!(report.chunks, 8);
            assert_eq!(report.delta_chunks, 8, "six unchanged chunks and two sparse changes");
            let frames: Vec<_> = ["seg0000", "seg0001"]
                .iter()
                .flat_map(|seg| {
                    let blob = fs.read_whole(&format!("{}/{seg}", store.gen_dir(2))).unwrap();
                    decode_segment(&blob).unwrap()
                })
                .collect();
            let unchanged = &frames[0];
            for (i, f) in frames.iter().enumerate() {
                assert!(f.is_delta(), "chunk {i} is a delta frame");
                if ![4, 7].contains(&i) {
                    assert_eq!(f.payload, unchanged.payload, "chunk {i}: one run of zeros");
                }
            }
            // An identical generation is all zero runs, and restores.
            let report = store.put(3, &second).unwrap();
            assert_eq!(report.delta_chunks, 8);
            assert!(
                report.stored_bytes < 8 * 64,
                "{} bytes for eight zero runs",
                report.stored_bytes
            );
            let cold = CheckpointStore::new(fs, small_cfg());
            match cold.recover().unwrap() {
                Recovery::Loaded { generation, payload, skipped } => {
                    assert_eq!((generation, skipped), (3, vec![]));
                    assert_eq!(payload, second, "the chain of deltas restores every chunk");
                }
                Recovery::Fresh => panic!("three generations were published"),
            }
        });
    }

    #[test]
    fn torn_generation_falls_back_to_previous() {
        FanStore::run(ClusterConfig::default(), partitions(1), |fs| {
            let store = CheckpointStore::new(fs, small_cfg());
            store.put(1, &gen_payload(1)).unwrap();
            store.put(2, &gen_payload(2)).unwrap();
            // Tear generation 2: truncate its first segment, simulating a
            // crash that corrupted the stored object after publish.
            let seg = format!("{}/seg0000", store.gen_dir(2));
            let bytes = fs.read_whole(&seg).unwrap();
            fs.unlink(&seg).unwrap();
            fs.write_whole(&seg, &bytes[..bytes.len() - 3]).unwrap();
            let cold = CheckpointStore::new(fs, small_cfg());
            match cold.recover().unwrap() {
                Recovery::Loaded { generation, payload, skipped } => {
                    assert_eq!(generation, 1, "recovery must fall back past the torn gen");
                    assert_eq!(payload, gen_payload(1), "fallback payload is byte-identical");
                    assert_eq!(skipped, vec![2]);
                }
                Recovery::Fresh => panic!("generation 1 is intact"),
            }
            let snap = fs.state().metrics.snapshot();
            assert!(snap.counter("ckpt.recover.torn") >= 1);
            assert_eq!(snap.counter("ckpt.recover.fallbacks"), 1);
        });
    }

    #[test]
    fn replica_recovers_a_dead_owners_checkpoint() {
        let cfg = || CkptConfig { replicas: 1, ..small_cfg() };
        let results =
            FanStore::run(ClusterConfig { nodes: 2, ..Default::default() }, partitions(2), |fs| {
                if fs.rank() == 0 {
                    let store = CheckpointStore::new(fs, cfg());
                    let r = store.put(1, &gen_payload(1)).unwrap();
                    assert_eq!(r.replicate_failures, 0, "rank 1 is up; pushes must land");
                    return true;
                }
                // Rank 1 plays the survivor: wait for the replicated
                // manifest to appear, then recover rank 0's lineage from
                // the local replica copies alone.
                let store = CheckpointStore::for_rank(fs, cfg(), 0);
                for _ in 0..2000 {
                    if !store.generations().unwrap().is_empty() {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                match store.recover().unwrap() {
                    Recovery::Loaded { generation, payload, .. } => {
                        assert_eq!(generation, 1);
                        assert_eq!(payload, gen_payload(1), "replica copy is byte-identical");
                        true
                    }
                    Recovery::Fresh => panic!("replica never received the checkpoint"),
                }
            });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn gc_keeps_delta_bases_alive() {
        FanStore::run(ClusterConfig::default(), partitions(1), |fs| {
            let cfg = CkptConfig { full_every: 2, keep_last: 1, ..small_cfg() };
            let store = CheckpointStore::new(fs, cfg.clone());
            for g in 1..=5u64 {
                store.put(g, &gen_payload(g)).unwrap();
            }
            assert_eq!(store.manifest(5).unwrap().base, Some(4), "gen 5 deltas against 4");
            let report = store.gc().unwrap();
            assert_eq!(report.removed, vec![1, 2, 3]);
            assert_eq!(report.kept, vec![4, 5], "4 survives as 5's delta base");
            assert_eq!(store.generations().unwrap(), vec![4, 5]);
            assert!(
                matches!(fs.read_whole(&store.manifest_path(2)), Err(FsError::NotFound(_))),
                "removed manifests are gone"
            );
            // The surviving chain still restores.
            let cold = CheckpointStore::new(fs, cfg);
            match cold.recover().unwrap() {
                Recovery::Loaded { generation, payload, .. } => {
                    assert_eq!(generation, 5);
                    assert_eq!(payload, gen_payload(5));
                }
                Recovery::Fresh => panic!("gens 4 and 5 were kept"),
            }
        });
    }
}
