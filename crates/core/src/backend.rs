//! Node-local storage backends for the compressed objects.
//!
//! The paper supports two backends (§IV-C1): compressed file data "stored
//! as byte arrays in a hash table" when users specify RAM, or "stored in
//! the local file system" when the backend is a local disk (SSD).
//! [`RamBackend`] and [`DiskBackend`] implement both; the daemon and
//! client are backend-agnostic.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fanstore_compress::CodecId;
use parking_lot::RwLock;

use crate::node::LocalObject;
use crate::stat::FileStat;
use crate::FsError;

/// A store of compressed objects keyed by path.
pub trait Backend: Send + Sync {
    /// Insert (or replace) an object.
    fn put(&self, path: &str, obj: LocalObject) -> Result<(), FsError>;

    /// Fetch an object (the compressed bytes plus codec/stat).
    fn get(&self, path: &str) -> Option<LocalObject>;

    /// Whether a path is present.
    fn contains(&self, path: &str) -> bool;

    /// Number of objects held.
    fn len(&self) -> usize;

    /// Compressed bytes held.
    fn bytes(&self) -> u64;

    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAM backend: a hash table of byte arrays (the paper's default).
#[derive(Default)]
pub struct RamBackend {
    map: RwLock<HashMap<String, LocalObject>>,
    bytes: AtomicU64,
}

impl RamBackend {
    /// Empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for RamBackend {
    fn put(&self, path: &str, obj: LocalObject) -> Result<(), FsError> {
        let size = obj.data.len() as u64;
        if let Some(old) = self.map.write().insert(path.to_string(), obj) {
            self.bytes.fetch_sub(old.data.len() as u64, Ordering::Relaxed);
        }
        self.bytes.fetch_add(size, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, path: &str) -> Option<LocalObject> {
        self.map.read().get(path).cloned()
    }

    fn contains(&self, path: &str) -> bool {
        self.map.read().contains_key(path)
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Disk backend: compressed objects live as files in a local directory
/// (the burst-buffer SSD); metadata stays in RAM.
pub struct DiskBackend {
    dir: PathBuf,
    /// Per path: codec, stat, object-file id and the payload CRC taken at
    /// `put`.
    index: RwLock<HashMap<String, (CodecId, FileStat, u64, u32)>>,
    bytes: AtomicU64,
    seq: AtomicU64,
}

impl DiskBackend {
    /// Create under `dir` (created if missing).
    pub fn new(dir: PathBuf) -> Result<Self, FsError> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| FsError::Comm(format!("backend dir {}: {e}", dir.display())))?;
        Ok(DiskBackend {
            dir,
            index: RwLock::new(HashMap::new()),
            bytes: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        })
    }

    /// Create under a fresh unique directory in the system temp dir.
    pub fn new_temp(tag: &str) -> Result<Self, FsError> {
        let pid = std::process::id();
        let unique = format!(
            "fanstore-{tag}-{pid}-{:x}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        );
        Self::new(std::env::temp_dir().join(unique))
    }

    fn object_file(&self, id: u64) -> PathBuf {
        self.dir.join(format!("obj{id:012}.bin"))
    }
}

impl Backend for DiskBackend {
    fn put(&self, path: &str, obj: LocalObject) -> Result<(), FsError> {
        let id = self.seq.fetch_add(1, Ordering::Relaxed);
        let file = self.object_file(id);
        std::fs::write(&file, &*obj.data)
            .map_err(|e| FsError::Comm(format!("backend write {}: {e}", file.display())))?;
        let size = obj.data.len() as u64;
        let mut index = self.index.write();
        let row = (obj.codec, obj.stat, id, obj.data_crc());
        if let Some((_, _, old_id, _)) = index.insert(path.to_string(), row) {
            let _ = std::fs::remove_file(self.object_file(old_id));
        }
        drop(index);
        self.bytes.fetch_add(size, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, path: &str) -> Option<LocalObject> {
        let (codec, stat, id, crc) = *self.index.read().get(path)?;
        let data = std::fs::read(self.object_file(id)).ok()?;
        Some(LocalObject::reread(codec, stat, Arc::new(data), crc))
    }

    fn contains(&self, path: &str) -> bool {
        self.index.read().contains_key(path)
    }

    fn len(&self) -> usize {
        self.index.read().len()
    }

    fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Drop for DiskBackend {
    fn drop(&mut self) {
        // Best-effort cleanup of the backing directory.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Which backend a cluster uses.
#[derive(Debug, Clone, Default)]
pub enum BackendKind {
    /// In-RAM hash table (paper default; fastest).
    #[default]
    Ram,
    /// Local file system under a temp directory (models the SSD backend).
    DiskTemp,
    /// Local file system under an explicit directory.
    Disk(PathBuf),
}

impl BackendKind {
    /// Instantiate a backend for `rank`.
    pub fn create(&self, rank: usize) -> Result<Box<dyn Backend>, FsError> {
        Ok(match self {
            BackendKind::Ram => Box::new(RamBackend::new()),
            BackendKind::DiskTemp => Box::new(DiskBackend::new_temp(&format!("rank{rank}"))?),
            BackendKind::Disk(dir) => Box::new(DiskBackend::new(dir.join(format!("rank{rank}")))?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore_compress::CodecFamily;

    fn obj(data: &[u8]) -> LocalObject {
        LocalObject::new(
            CodecId::new(CodecFamily::Store, 0),
            FileStat::regular(1, data.len() as u64),
            Arc::new(data.to_vec()),
        )
    }

    fn exercise(backend: &dyn Backend) {
        assert!(backend.is_empty());
        backend.put("a/b.bin", obj(b"hello")).unwrap();
        backend.put("c.bin", obj(&[9u8; 100])).unwrap();
        assert_eq!(backend.len(), 2);
        assert_eq!(backend.bytes(), 105);
        assert!(backend.contains("a/b.bin"));
        assert!(!backend.contains("missing"));
        let got = backend.get("a/b.bin").unwrap();
        assert_eq!(&*got.data, b"hello");
        assert_eq!(got.stat.size, 5);
        assert!(backend.get("missing").is_none());
    }

    #[test]
    fn ram_backend_basics() {
        exercise(&RamBackend::new());
    }

    #[test]
    fn disk_backend_basics() {
        let b = DiskBackend::new_temp("test-basics").unwrap();
        exercise(&b);
    }

    #[test]
    fn disk_backend_persists_across_get_calls() {
        let b = DiskBackend::new_temp("test-persist").unwrap();
        b.put("f", obj(&[7u8; 4096])).unwrap();
        for _ in 0..3 {
            assert_eq!(b.get("f").unwrap().data.len(), 4096);
        }
    }

    #[test]
    fn disk_backend_cleans_up_on_drop() {
        let dir;
        {
            let b = DiskBackend::new_temp("test-cleanup").unwrap();
            b.put("f", obj(b"x")).unwrap();
            dir = b.dir.clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "backing dir should be removed on drop");
    }

    #[test]
    fn replace_updates_accounting() {
        let b = RamBackend::new();
        b.put("f", obj(&[0u8; 100])).unwrap();
        b.put("f", obj(&[0u8; 40])).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.bytes(), 40);
    }

    #[test]
    fn backend_kind_creates() {
        assert!(BackendKind::Ram.create(0).is_ok());
        let disk = BackendKind::DiskTemp.create(1).unwrap();
        disk.put("x", obj(b"y")).unwrap();
        assert_eq!(disk.len(), 1);
    }
}
