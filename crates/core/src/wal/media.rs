//! The durable medium under the write-ahead log.
//!
//! The reproduction's cluster is in-process, so "the disk" is modelled
//! the same way the fabric's link delay is: [`RamMedia`] is a shared
//! object store whose `sync` spins for a configurable modelled fsync
//! cost. Sharing one `Arc<RamMedia>` across two [`WalStore`] instances
//! models a daemon restart on the same node — the medium survives, the
//! process state does not.
//!
//! [`CrashMedia`] wraps a medium with a deterministic power-cut budget:
//! after `cut` mutation bytes every further mutation is silently
//! black-holed, the mutation in flight lands only a prefix (a torn
//! write), and `sync` reports failure. A write is *acknowledged* iff
//! the `sync` covering it succeeded — exactly the invariant the crash
//! matrix test sweeps.
//!
//! [`WalStore`]: crate::wal::WalStore

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::metrics::now_us;
use crate::FsError;

/// A named-object durable medium for WAL state (log, segments, manifest).
///
/// Ownership: `write` takes the buffer, which *becomes* the stored
/// object, and `read` hands out a shared reference to it — a segment
/// crosses this boundary without a copy in either direction, and a
/// buffer a reader still holds stays valid after the object is replaced
/// or deleted. Only `append` and `read_range` copy, and only the bytes
/// they are given or asked for.
pub trait WalMedia: Send + Sync {
    /// Atomically replace the whole object `name` with `bytes`.
    fn write(&self, name: &str, bytes: Vec<u8>) -> Result<(), FsError>;

    /// Append to object `name` (created when missing).
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), FsError>;

    /// Make every prior mutation durable ("fsync"). An error means the
    /// caller must NOT acknowledge writes covered by this sync.
    fn sync(&self) -> Result<(), FsError>;

    /// Read a whole object.
    fn read(&self, name: &str) -> Option<Arc<Vec<u8>>>;

    /// Read `len` bytes at `offset` of object `name`: one entry's stored
    /// value out of a segment. `None` when the object is missing or the
    /// range does not lie inside it.
    fn read_range(&self, name: &str, offset: usize, len: usize) -> Option<Vec<u8>>;

    /// Object names, sorted.
    fn list(&self) -> Vec<String>;

    /// Delete an object (missing is fine — the goal state holds).
    fn delete(&self, name: &str);
}

/// In-RAM medium with a modelled fsync cost.
///
/// `sync` spin-waits `sync_cost` on the shared monotonic clock — the
/// cost is **modelled**, the batching that amortises it is real. A zero
/// cost makes `sync` free (unit tests that don't measure anything).
pub struct RamMedia {
    objects: Mutex<BTreeMap<String, Arc<Vec<u8>>>>,
    sync_cost: Duration,
    syncs: AtomicU64,
}

impl std::fmt::Debug for RamMedia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RamMedia")
            .field("objects", &self.objects.lock().len())
            .field("sync_cost", &self.sync_cost)
            .field("syncs", &self.syncs())
            .finish()
    }
}

impl RamMedia {
    /// Empty medium whose `sync` costs `sync_cost` of spin time.
    pub fn new(sync_cost: Duration) -> Arc<Self> {
        Arc::new(RamMedia {
            objects: Mutex::new(BTreeMap::new()),
            sync_cost,
            syncs: AtomicU64::new(0),
        })
    }

    /// Number of syncs performed (the bench's "fsync count").
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

impl WalMedia for RamMedia {
    fn write(&self, name: &str, bytes: Vec<u8>) -> Result<(), FsError> {
        self.objects.lock().insert(name.to_string(), Arc::new(bytes));
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), FsError> {
        let mut objects = self.objects.lock();
        // Copy-on-write only while a reader still holds the old buffer.
        Arc::make_mut(objects.entry(name.to_string()).or_default()).extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> Result<(), FsError> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        if !self.sync_cost.is_zero() {
            let until = now_us() + self.sync_cost.as_micros() as u64;
            while now_us() < until {
                std::hint::spin_loop();
            }
        }
        Ok(())
    }

    fn read(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.objects.lock().get(name).cloned()
    }

    fn read_range(&self, name: &str, offset: usize, len: usize) -> Option<Vec<u8>> {
        let objects = self.objects.lock();
        let end = offset.checked_add(len)?;
        objects.get(name)?.get(offset..end).map(<[u8]>::to_vec)
    }

    fn list(&self) -> Vec<String> {
        self.objects.lock().keys().cloned().collect()
    }

    fn delete(&self, name: &str) {
        self.objects.lock().remove(name);
    }
}

/// A medium that loses power after a fixed mutation-byte budget.
///
/// Mutations consume budget byte-by-byte: the mutation that crosses the
/// cut lands only the bytes the budget still covered (a torn tail for
/// appends; for whole-object writes the *old* object survives, since a
/// half-replaced object would model a non-atomic rename). Everything
/// after the cut is silently dropped, and `sync` fails — so a store
/// running on this medium can never acknowledge a post-cut write.
pub struct CrashMedia {
    inner: Arc<dyn WalMedia>,
    /// Mutation bytes until the power cut.
    budget: Mutex<u64>,
}

impl CrashMedia {
    /// Wrap `inner`, cutting power after `cut_bytes` mutation bytes.
    pub fn new(inner: Arc<dyn WalMedia>, cut_bytes: u64) -> Arc<Self> {
        Arc::new(CrashMedia { inner, budget: Mutex::new(cut_bytes) })
    }

    /// Whether the cut has happened.
    pub fn dead(&self) -> bool {
        *self.budget.lock() == 0
    }

    /// Mutation bytes still allowed before the cut. A crash sweep runs
    /// once with a huge budget to measure the workload's total mutation
    /// bytes (`initial - remaining`), then sweeps cuts across it.
    pub fn remaining(&self) -> u64 {
        *self.budget.lock()
    }

    /// Charge `len` bytes against the budget; returns how many bytes of
    /// this mutation actually land.
    fn charge(&self, len: usize) -> usize {
        let mut budget = self.budget.lock();
        let landed = (*budget).min(len as u64);
        *budget -= landed;
        landed as usize
    }
}

impl WalMedia for CrashMedia {
    fn write(&self, name: &str, bytes: Vec<u8>) -> Result<(), FsError> {
        // Whole-object replace is atomic: it lands fully or not at all.
        if self.charge(bytes.len().max(1)) == bytes.len().max(1) {
            self.inner.write(name, bytes)?;
        }
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), FsError> {
        let landed = self.charge(bytes.len());
        if landed > 0 {
            self.inner.append(name, &bytes[..landed])?;
        }
        Ok(())
    }

    fn sync(&self) -> Result<(), FsError> {
        if self.dead() {
            return Err(FsError::Comm("wal medium: power lost".into()));
        }
        self.inner.sync()
    }

    fn read(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.inner.read(name)
    }

    fn read_range(&self, name: &str, offset: usize, len: usize) -> Option<Vec<u8>> {
        self.inner.read_range(name, offset, len)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, name: &str) {
        if !self.dead() {
            self.charge(1);
            self.inner.delete(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_media_roundtrip() {
        let m = RamMedia::new(Duration::ZERO);
        m.write("a", b"one".to_vec()).unwrap();
        let held = m.read("a").unwrap();
        m.append("a", b"two").unwrap();
        m.append("b", b"x").unwrap();
        assert_eq!(**m.read("a").unwrap(), *b"onetwo");
        assert_eq!(**held, *b"one", "a buffer a reader holds is never mutated under it");
        assert_eq!(m.read_range("a", 2, 3).unwrap(), b"etw");
        assert!(m.read_range("a", 4, 3).is_none() && m.read_range("a", usize::MAX, 2).is_none());
        assert!(m.read_range("missing", 0, 0).is_none());
        assert_eq!(m.list(), vec!["a".to_string(), "b".to_string()]);
        m.delete("a");
        assert!(m.read("a").is_none());
        m.sync().unwrap();
        assert_eq!(m.syncs(), 1);
    }

    #[test]
    fn crash_media_tears_the_inflight_append() {
        let inner = RamMedia::new(Duration::ZERO);
        let m = CrashMedia::new(inner.clone(), 5);
        m.append("log", b"abc").unwrap(); // 3 bytes land
        m.sync().unwrap();
        m.append("log", b"defg").unwrap(); // only "de" lands — torn
        assert!(m.sync().is_err(), "post-cut sync must not acknowledge");
        m.append("log", b"never").unwrap(); // black-holed
        assert_eq!(**inner.read("log").unwrap(), *b"abcde");
    }

    #[test]
    fn crash_media_keeps_whole_object_writes_atomic() {
        let inner = RamMedia::new(Duration::ZERO);
        inner.write("m", b"old".to_vec()).unwrap();
        let m = CrashMedia::new(inner.clone(), 2);
        m.write("m", b"newer".to_vec()).unwrap(); // crosses the cut: old survives
        assert_eq!(**inner.read("m").unwrap(), *b"old");
    }
}
