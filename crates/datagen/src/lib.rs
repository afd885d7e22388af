//! # fanstore-datagen
//!
//! Synthetic dataset generators standing in for the six real datasets of
//! the FanStore paper (Table II):
//!
//! | dataset | format | # files | avg size | paper ratio (lz4hc / lzma) |
//! |---|---|---|---|---|
//! | EM (electron microscopy) | tif | 0.6 M | 1.6 MB | 2.0 / 4.0 |
//! | Tokamak reactor status | npz | 0.58 M | 1.2 KB | 3.0 / 3.6 |
//! | Lung CT | nii | 1.4 K | 1.3 MB | 6.5 / 10.8 |
//! | Astronomy survey | FITS | 17.7 K | 6 MB | 2.2 / 3.4 |
//! | ImageNet | jpg | 1.3 M | 100 KB | 1.0 / 1.0 |
//! | Language corpus | txt | 8 | 4 MB | 2.6 / 4.0 |
//!
//! The real datasets are unavailable (size and licensing), so each
//! generator produces files with the same *format statistics*: plausible
//! headers, the file-size distribution and directory layout of Table II,
//! and byte-level redundancy tuned so our codec suite reaches
//! approximately the paper's Table IV compression ratios. Everything is
//! deterministic given a seed.

pub mod astro;
pub mod em;
pub mod imagenet;
pub mod language;
pub mod lung;
pub mod noise;
pub mod stats;
pub mod tokamak;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// The six dataset families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// 3D electron-microscopy tiles (TIFF), the SRGAN training data.
    EmTif,
    /// Tokamak reactor diagnostics (NPZ), the FRNN training data.
    TokamakNpz,
    /// Lung CT volumes (NIfTI).
    LungNii,
    /// Astronomy survey images (FITS).
    AstroFits,
    /// ImageNet JPEGs (entropy-coded, incompressible).
    ImageNetJpg,
    /// Plain-text language corpus.
    LanguageTxt,
}

impl DatasetKind {
    /// All six, in Table II order.
    pub const ALL: [DatasetKind; 6] = [
        DatasetKind::EmTif,
        DatasetKind::TokamakNpz,
        DatasetKind::LungNii,
        DatasetKind::AstroFits,
        DatasetKind::ImageNetJpg,
        DatasetKind::LanguageTxt,
    ];

    /// Short name used in paths and reports.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::EmTif => "em",
            DatasetKind::TokamakNpz => "tokamak",
            DatasetKind::LungNii => "lung",
            DatasetKind::AstroFits => "astro",
            DatasetKind::ImageNetJpg => "imagenet",
            DatasetKind::LanguageTxt => "language",
        }
    }

    /// File extension matching Table II.
    pub fn extension(self) -> &'static str {
        match self {
            DatasetKind::EmTif => "tif",
            DatasetKind::TokamakNpz => "npz",
            DatasetKind::LungNii => "nii",
            DatasetKind::AstroFits => "fits",
            DatasetKind::ImageNetJpg => "jpg",
            DatasetKind::LanguageTxt => "txt",
        }
    }

    /// Average file size of the real dataset (Table II), in bytes.
    pub fn paper_avg_size(self) -> usize {
        match self {
            DatasetKind::EmTif => 1_600_000,
            DatasetKind::TokamakNpz => 1_200,
            DatasetKind::LungNii => 1_300_000,
            DatasetKind::AstroFits => 6_000_000,
            DatasetKind::ImageNetJpg => 100_000,
            DatasetKind::LanguageTxt => 4_000_000,
        }
    }

    /// Number of directories the real dataset spreads over (Table II).
    pub fn paper_dir_count(self) -> usize {
        match self {
            DatasetKind::EmTif => 6,
            DatasetKind::TokamakNpz => 1,
            DatasetKind::LungNii => 2,
            DatasetKind::AstroFits => 1,
            DatasetKind::ImageNetJpg => 2002,
            DatasetKind::LanguageTxt => 1,
        }
    }
}

/// Specification for a generated dataset instance.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which family to generate.
    pub kind: DatasetKind,
    /// How many files.
    pub num_files: usize,
    /// Approximate bytes per file. [`DatasetSpec::scaled`] picks a
    /// laptop-friendly default per family.
    pub file_size: usize,
    /// Master seed; every file is derived deterministically from
    /// `(seed, kind, index)`.
    pub seed: u64,
    /// Number of directories to spread files over.
    pub dirs: usize,
}

impl DatasetSpec {
    /// A scaled-down instance: same shape as the paper's dataset, file
    /// sizes reduced to keep experiments fast, directory structure
    /// proportional to Table II.
    pub fn scaled(kind: DatasetKind, num_files: usize, seed: u64) -> Self {
        let file_size = match kind {
            DatasetKind::EmTif => 128 * 1024,
            DatasetKind::TokamakNpz => 1200, // already tiny in the paper
            DatasetKind::LungNii => 128 * 1024,
            DatasetKind::AstroFits => 192 * 1024,
            DatasetKind::ImageNetJpg => 32 * 1024,
            DatasetKind::LanguageTxt => 256 * 1024,
        };
        let dirs = kind.paper_dir_count().min(num_files.max(1));
        DatasetSpec { kind, num_files, file_size, seed, dirs }
    }

    /// Relative path of file `index`, mirroring the dataset's directory
    /// layout (e.g. ImageNet's many category directories).
    pub fn path_of(&self, index: usize) -> String {
        let dir = index % self.dirs.max(1);
        format!("{}/d{:04}/f{:06}.{}", self.kind.name(), dir, index, self.kind.extension())
    }

    /// Generate the contents of file `index`.
    pub fn generate(&self, index: usize) -> Vec<u8> {
        let mut rng = self.rng_for(index);
        match self.kind {
            DatasetKind::EmTif => em::generate(&mut rng, self.file_size),
            DatasetKind::TokamakNpz => tokamak::generate(&mut rng, self.file_size),
            DatasetKind::LungNii => lung::generate(&mut rng, self.file_size),
            DatasetKind::AstroFits => astro::generate(&mut rng, self.file_size),
            DatasetKind::ImageNetJpg => imagenet::generate(&mut rng, self.file_size),
            DatasetKind::LanguageTxt => language::generate(&mut rng, self.file_size),
        }
    }

    /// Generate the whole dataset as `(path, data)` pairs, in index
    /// order. Files are generated data-parallel: each has its own RNG
    /// stream ([`Self::rng_for`]), so the result does not depend on the
    /// thread count.
    pub fn generate_all(&self) -> Vec<(String, Vec<u8>)> {
        (0..self.num_files).into_par_iter().map(|i| (self.path_of(i), self.generate(i))).collect()
    }

    /// Deterministic per-file RNG.
    fn rng_for(&self, index: usize) -> ChaCha8Rng {
        let stream = (self.kind as u8 as u64) << 32 | index as u64;
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&self.seed.to_le_bytes());
        seed[8..16].copy_from_slice(&stream.to_le_bytes());
        ChaCha8Rng::from_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for kind in DatasetKind::ALL {
            let spec = DatasetSpec::scaled(kind, 4, 42);
            let a = spec.generate(2);
            let b = spec.generate(2);
            assert_eq!(a, b, "{:?} not deterministic", kind);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::scaled(DatasetKind::EmTif, 1, 1).generate(0);
        let b = DatasetSpec::scaled(DatasetKind::EmTif, 1, 2).generate(0);
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_differ() {
        let spec = DatasetSpec::scaled(DatasetKind::AstroFits, 2, 7);
        assert_ne!(spec.generate(0), spec.generate(1));
    }

    #[test]
    fn paths_follow_directory_layout() {
        let spec = DatasetSpec::scaled(DatasetKind::ImageNetJpg, 100, 0);
        let p0 = spec.path_of(0);
        let p1 = spec.path_of(1);
        assert!(p0.starts_with("imagenet/d0000/"));
        assert!(p0.ends_with(".jpg"));
        assert_ne!(p0, p1);
        // 100 files over min(2002, 100) dirs: all distinct dirs.
        let dirs: std::collections::HashSet<String> =
            (0..100).map(|i| spec.path_of(i).split('/').nth(1).unwrap().to_string()).collect();
        assert_eq!(dirs.len(), 100);
    }

    #[test]
    fn sizes_are_near_requested() {
        for kind in DatasetKind::ALL {
            let spec = DatasetSpec::scaled(kind, 1, 3);
            let data = spec.generate(0);
            let lo = spec.file_size / 2;
            let hi = spec.file_size * 2;
            assert!(
                (lo..=hi).contains(&data.len()),
                "{:?}: {} not within [{lo}, {hi}]",
                kind,
                data.len()
            );
        }
    }

    #[test]
    fn generate_all_counts() {
        let spec = DatasetSpec::scaled(DatasetKind::TokamakNpz, 17, 5);
        let files = spec.generate_all();
        assert_eq!(files.len(), 17);
        let paths: std::collections::HashSet<&String> = files.iter().map(|(p, _)| p).collect();
        assert_eq!(paths.len(), 17, "paths must be unique");
        // Index order and per-file bytes, whatever the thread count.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.install(|| spec.generate_all()), files);
        for (i, (path, data)) in files.iter().enumerate() {
            assert_eq!((path, data), (&spec.path_of(i), &spec.generate(i)));
        }
    }
}
