//! Node-local metadata tables and the global metadata view (§IV-C1).
//!
//! Loading a partition populates a node's table with its own files; one
//! `allgather` then replicates every node's entries everywhere, after
//! which all `stat()`/`readdir()` traffic is answered from local RAM —
//! zero load on the shared file system's metadata servers.

use std::collections::{BTreeSet, HashMap};

use fanstore_compress::CodecId;

use crate::framing::{put_str16, Malformed, Reader};
use crate::stat::{FileStat, STAT_SIZE};
use crate::FsError;

/// Metadata for one file in the global namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaEntry {
    /// File attributes; `stat.owner_rank` locates the compressed bytes.
    pub stat: FileStat,
    /// Codec of the stored payload.
    pub codec: CodecId,
}

/// The metadata table: file attributes plus a directory index for
/// `readdir()`.
#[derive(Debug, Default)]
pub struct MetaTable {
    files: HashMap<String, MetaEntry>,
    /// Directory path -> sorted child names (files and subdirectories).
    dirs: HashMap<String, BTreeSet<String>>,
}

impl MetaTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Number of directories (including implicit parents).
    pub fn dir_count(&self) -> usize {
        self.dirs.len()
    }

    /// Insert a file, creating its parent directory chain.
    pub fn insert(&mut self, path: &str, entry: MetaEntry) {
        self.files.insert(path.to_string(), entry);
        self.index_parents(path);
    }

    fn index_parents(&mut self, path: &str) {
        let mut child = path;
        loop {
            let (dir, name) = match child.rsplit_once('/') {
                Some((d, n)) => (d, n),
                None => ("", child),
            };
            let inserted = self.dirs.entry(dir.to_string()).or_default().insert(name.to_string());
            if !inserted || dir.is_empty() {
                break;
            }
            child = dir;
        }
    }

    /// Remove a file, pruning now-empty parent directories from the
    /// index (checkpoint GC unlinks whole generation directories this
    /// way). Returns whether the file was present.
    pub fn remove(&mut self, path: &str) -> bool {
        if self.files.remove(path).is_none() {
            return false;
        }
        let mut child = path.to_string();
        loop {
            let (dir, name) = match child.rsplit_once('/') {
                Some((d, n)) => (d.to_string(), n.to_string()),
                None => (String::new(), child.clone()),
            };
            let now_empty = match self.dirs.get_mut(&dir) {
                Some(set) => {
                    set.remove(&name);
                    set.is_empty()
                }
                None => false,
            };
            if !now_empty {
                break;
            }
            self.dirs.remove(&dir);
            if dir.is_empty() {
                break;
            }
            child = dir;
        }
        true
    }

    /// Look up a file's metadata.
    pub fn get(&self, path: &str) -> Option<&MetaEntry> {
        self.files.get(path)
    }

    /// POSIX `stat()`: answers for both files and directories.
    pub fn stat(&self, path: &str) -> Option<FileStat> {
        let path = path.trim_end_matches('/');
        if let Some(e) = self.files.get(path) {
            return Some(e.stat);
        }
        if self.dirs.contains_key(path) {
            return Some(FileStat::directory(0));
        }
        None
    }

    /// POSIX `readdir()`: sorted entries of a directory.
    pub fn readdir(&self, path: &str) -> Option<Vec<String>> {
        let path = path.trim_end_matches('/');
        self.dirs.get(path).map(|set| set.iter().cloned().collect())
    }

    /// Iterate all `(path, entry)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&String, &MetaEntry)> {
        self.files.iter()
    }

    /// Serialise the table for the metadata allgather: a `u32` count,
    /// then per file a length-prefixed path, the codec id and the stat
    /// block.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.files.len() * (STAT_SIZE + 32));
        out.extend_from_slice(&(self.files.len() as u32).to_le_bytes());
        for (path, e) in &self.files {
            put_entry(&mut out, path, e);
        }
        out
    }

    /// Merge entries serialised by [`MetaTable::encode`] on another node.
    /// All or nothing: the whole buffer is parsed before the first insert,
    /// so a rejected merge leaves the table as it was.
    pub fn merge_encoded(&mut self, buf: &[u8]) -> Result<usize, FsError> {
        let parse = || -> Result<Vec<(&str, MetaEntry)>, Malformed> {
            let mut r = Reader::new(buf);
            let count = r.count(2 + 2 + STAT_SIZE)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let path = r.str16()?;
                let codec = CodecId(r.u16()?);
                entries.push((path, MetaEntry { stat: FileStat::read(&mut r)?, codec }));
            }
            Ok(entries)
        };
        let entries = parse().map_err(|e| e.corrupt("meta table"))?;
        let count = entries.len();
        for (path, entry) in entries {
            self.insert(path, entry);
        }
        Ok(count)
    }
}

fn put_entry(out: &mut Vec<u8>, path: &str, entry: &MetaEntry) {
    put_str16(out, path);
    out.extend_from_slice(&entry.codec.0.to_le_bytes());
    entry.stat.encode(out);
}

/// A single serialised metadata entry, as forwarded to the owner rank when
/// an output file closes (§V-D write-metadata insertion).
pub fn encode_single(path: &str, entry: &MetaEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(path.len() + STAT_SIZE + 8);
    out.extend_from_slice(&1u32.to_le_bytes());
    put_entry(&mut out, path, entry);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore_compress::CodecFamily;

    fn entry(size: u64) -> MetaEntry {
        MetaEntry { stat: FileStat::regular(1, size), codec: CodecId::new(CodecFamily::Lz4Hc, 9) }
    }

    #[test]
    fn insert_and_stat() {
        let mut t = MetaTable::new();
        t.insert("a/b/c.bin", entry(100));
        assert_eq!(t.stat("a/b/c.bin").unwrap().size, 100);
        assert!(t.stat("a/b").unwrap().is_dir());
        assert!(t.stat("a").unwrap().is_dir());
        assert!(t.stat("missing").is_none());
    }

    #[test]
    fn readdir_lists_sorted_children() {
        let mut t = MetaTable::new();
        t.insert("d/z.bin", entry(1));
        t.insert("d/a.bin", entry(1));
        t.insert("d/sub/x.bin", entry(1));
        assert_eq!(t.readdir("d").unwrap(), vec!["a.bin", "sub", "z.bin"]);
        assert_eq!(t.readdir("d/sub").unwrap(), vec!["x.bin"]);
        assert!(t.readdir("nope").is_none());
    }

    #[test]
    fn root_directory_indexed() {
        let mut t = MetaTable::new();
        t.insert("top.bin", entry(1));
        t.insert("dir/file.bin", entry(1));
        assert_eq!(t.readdir("").unwrap(), vec!["dir", "top.bin"]);
    }

    #[test]
    fn trailing_slash_tolerated() {
        let mut t = MetaTable::new();
        t.insert("d/f", entry(1));
        assert!(t.stat("d/").unwrap().is_dir());
        assert_eq!(t.readdir("d/").unwrap(), vec!["f"]);
    }

    #[test]
    fn encode_merge_roundtrip() {
        let mut a = MetaTable::new();
        a.insert("x/1.bin", entry(10));
        a.insert("x/2.bin", entry(20));
        let mut b = MetaTable::new();
        b.insert("y/3.bin", entry(30));
        let merged_count = b.merge_encoded(&a.encode()).unwrap();
        assert_eq!(merged_count, 2);
        assert_eq!(b.file_count(), 3);
        assert_eq!(b.stat("x/1.bin").unwrap().size, 10);
        assert_eq!(b.readdir("x").unwrap(), vec!["1.bin", "2.bin"]);
    }

    #[test]
    fn merge_corrupt_rejected() {
        let mut t = MetaTable::new();
        let mut buf = MetaTable::new().encode();
        buf[..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(t.merge_encoded(&buf).is_err());
    }

    #[test]
    fn encode_single_merges() {
        let mut t = MetaTable::new();
        let buf = encode_single("out/ckpt_001.h5", &entry(999));
        t.merge_encoded(&buf).unwrap();
        assert_eq!(t.stat("out/ckpt_001.h5").unwrap().size, 999);
    }

    #[test]
    fn remove_prunes_empty_dirs() {
        let mut t = MetaTable::new();
        t.insert("ckpt/gen1/seg0", entry(1));
        t.insert("ckpt/gen1/seg1", entry(1));
        t.insert("ckpt/gen2/seg0", entry(1));
        assert!(t.remove("ckpt/gen1/seg0"));
        assert_eq!(t.readdir("ckpt/gen1").unwrap(), vec!["seg1"]);
        assert!(t.remove("ckpt/gen1/seg1"));
        // gen1 is empty: gone from the index and from its parent.
        assert!(t.readdir("ckpt/gen1").is_none());
        assert_eq!(t.readdir("ckpt").unwrap(), vec!["gen2"]);
        assert!(t.remove("ckpt/gen2/seg0"));
        // The whole chain collapsed, including the root.
        assert!(t.readdir("ckpt").is_none());
        assert!(t.readdir("").is_none());
        assert!(!t.remove("ckpt/gen2/seg0"), "second remove is a no-op");
        assert_eq!(t.file_count(), 0);
    }

    #[test]
    fn counts() {
        let mut t = MetaTable::new();
        t.insert("a/b/c", entry(1));
        t.insert("a/d", entry(1));
        assert_eq!(t.file_count(), 2);
        // dirs: "", "a", "a/b"
        assert_eq!(t.dir_count(), 3);
    }
}
