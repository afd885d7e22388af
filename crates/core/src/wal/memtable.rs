//! The in-memory write buffer between the WAL and the segment flush.
//!
//! A `BTreeMap` keyed by path (sorted, so a flush emits a sorted
//! segment deterministically) holding the newest version of each key —
//! a value, or a tombstone from an `unlink`. Byte accounting drives the
//! flush trigger.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::log::WalRecord;

/// One live memtable entry: the newest version of a key.
#[derive(Debug, Clone)]
pub struct MemEntry {
    /// Version (WAL sequence number) of this write.
    pub seq: u64,
    /// The value; `None` is a tombstone.
    pub value: Option<Arc<Vec<u8>>>,
}

/// Sorted write buffer with byte accounting.
#[derive(Debug, Default)]
pub struct MemTable {
    map: BTreeMap<String, MemEntry>,
    bytes: usize,
}

impl MemTable {
    /// Empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one replayed record, taking its value (newer seq wins; replay
    /// may apply out-of-order duplicates after a crash-trim race, so the
    /// guard is explicit).
    pub fn apply(&mut self, rec: WalRecord) {
        let value = (!rec.tombstone).then(|| Arc::new(rec.value));
        self.insert(&rec.path, MemEntry { seq: rec.seq, value });
    }

    /// Insert the newest version of `path` (older seqs are ignored).
    pub fn insert(&mut self, path: &str, entry: MemEntry) {
        let add = path.len() + entry.value.as_ref().map_or(0, |v| v.len());
        match self.map.get_mut(path) {
            Some(old) if old.seq >= entry.seq => {}
            Some(old) => {
                self.bytes -= path.len() + old.value.as_ref().map_or(0, |v| v.len());
                self.bytes += add;
                *old = entry;
            }
            None => {
                self.bytes += add;
                self.map.insert(path.to_string(), entry);
            }
        }
    }

    /// The newest version of `path`, if buffered here.
    pub fn get(&self, path: &str) -> Option<&MemEntry> {
        self.map.get(path)
    }

    /// Number of buffered keys (tombstones included).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate buffered bytes (keys + values).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Sorted iteration for the segment flush.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &MemEntry)> {
        self.map.iter()
    }

    /// Drain everything (the flush hands the contents to the segment
    /// builder and starts a fresh buffer).
    pub fn drain(&mut self) -> BTreeMap<String, MemEntry> {
        self.bytes = 0;
        std::mem::take(&mut self.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(seq: u64, value: &[u8]) -> MemEntry {
        MemEntry { seq, value: Some(Arc::new(value.to_vec())) }
    }

    #[test]
    fn newest_seq_wins() {
        let mut m = MemTable::new();
        m.insert("k", put(2, b"new"));
        m.insert("k", put(1, b"old"));
        assert_eq!(m.get("k").unwrap().seq, 2);
        m.insert("k", put(3, b"newest"));
        assert_eq!(&**m.get("k").unwrap().value.as_ref().unwrap(), b"newest");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn byte_accounting_tracks_replacements() {
        let mut m = MemTable::new();
        m.insert("key", put(1, &[0u8; 100]));
        assert_eq!(m.bytes(), 103);
        m.insert("key", put(2, &[0u8; 10]));
        assert_eq!(m.bytes(), 13);
        m.insert("key", MemEntry { seq: 3, value: None });
        assert_eq!(m.bytes(), 3, "a tombstone keeps only the key bytes");
        assert_eq!(m.drain().len(), 1);
        assert_eq!(m.bytes(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = MemTable::new();
        for k in ["z", "a", "m"] {
            m.insert(k, put(1, b"v"));
        }
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }
}
