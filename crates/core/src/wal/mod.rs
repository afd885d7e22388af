//! `fanstore::wal` — the durable write path.
//!
//! An LSM-flavoured store for node-local writes: a CRC-framed
//! write-ahead log with group commit ([`log`]), an in-memory memtable
//! ([`memtable`]) that flushes into immutable compressed pack-format
//! segments behind bloom filters ([`segment`], [`bloom`]), a CRC-tailed
//! manifest as the atomic publish point ([`manifest`]), and compaction
//! that merges segments while retiring superseded versions and
//! tombstones — all tied together by [`WalStore`] ([`store`]) on a
//! pluggable durable medium ([`media`]). [`WalStore::open`] is the one
//! check of a medium: it replays the log and verifies every published
//! segment against the manifest that names it.
//!
//! The pieces deliberately reuse the rest of the crate instead of
//! re-inventing it: WAL frames are [`crate::ckpt::frame`] frames,
//! segment entries ride [`crate::pack`]'s partition layout, values go
//! through the `fanstore-compress` codec registry, and the manifest
//! follows the checkpoint generations' written-last publish discipline.

pub mod bloom;
pub mod log;
pub mod manifest;
pub mod media;
pub mod memtable;
pub mod segment;
pub mod store;

pub use bloom::BloomFilter;
pub use log::{encode_record, replay, WalRecord, FLAG_TOMBSTONE};
pub use manifest::{WalManifest, WalSegmentMeta};
pub use media::{CrashMedia, RamMedia, WalMedia};
pub use memtable::{MemEntry, MemTable};
pub use store::{CompactionReport, Lookup, WalConfig, WalMetrics, WalReplay, WalStatus, WalStore};
