//! # fanstore
//!
//! A Rust reproduction of **FanStore** — the distributed, compressed,
//! user-space object store for deep-learning training I/O described in
//! *"Efficient I/O for Neural Network Training with Compressed Data"*
//! (Zhang, Huang, Pauloski, Foster — IPPS 2020).
//!
//! FanStore packs a training dataset into compressed partitions
//! ([`pack`], Table I layout), spreads the partitions over the node-local
//! burst buffers of a compute allocation, replicates all file metadata to
//! every node with one allgather ([`meta`]), and serves file contents
//! either from the local partition or by fetching the compressed bytes
//! from the owning node over the interconnect ([`daemon`]). Decompressed
//! files live in a bounded shared cache with a FIFO-except-in-use policy
//! ([`cache`]). Training code accesses all of it through a POSIX-style
//! multi-read/single-write interface ([`client`]).
//!
//! ## Mapping to the paper
//!
//! | paper section | module |
//! |---|---|
//! | §IV-A interface (10 intercepted libc calls) | [`client::FsClient`] |
//! | §IV-B compressed representation (Table I) | [`pack`] |
//! | §IV-C1 loading + metadata allgather | [`cluster`], [`meta`] |
//! | §IV-C2 open/read handling (Figs 2-3) | [`node`], [`client`] |
//! | §IV-C3 cache policy (Fig 4) | [`cache`] |
//! | §V-B data preparation tool | [`prep`] |
//! | §V-D parallel runtime & communication | [`cluster`], [`daemon`] |
//!
//! The original implementation intercepts glibc symbols with
//! `LD_PRELOAD`/trampolines; that mechanism is inherently C/ELF-specific,
//! so this reproduction exposes the same call surface as a library
//! ([`client::FsClient`]) — identical semantics, different capture point
//! (see DESIGN.md).
//!
//! ## Quick start
//!
//! ```
//! use fanstore::cluster::{ClusterConfig, FanStore};
//! use fanstore::prep::{prepare, PrepConfig};
//!
//! // 1. Prepare: pack a dataset into compressed partitions.
//! let files = vec![
//!     ("data/a.bin".to_string(), vec![1u8; 4096]),
//!     ("data/b.bin".to_string(), vec![2u8; 4096]),
//! ];
//! let packed = prepare(files, &PrepConfig { partitions: 2, ..PrepConfig::default() });
//!
//! // 2. Run a 2-node cluster; every node sees the global namespace.
//! let results = FanStore::run(
//!     ClusterConfig { nodes: 2, ..ClusterConfig::default() },
//!     packed.partitions,
//!     |fs| {
//!         let fd = fs.open("data/a.bin").unwrap();
//!         let mut buf = [0u8; 16];
//!         let n = fs.read(fd, &mut buf).unwrap();
//!         fs.close(fd).unwrap();
//!         (n, buf[0])
//!     },
//! );
//! assert_eq!(results, vec![(16, 1), (16, 1)]);
//! ```

pub mod attrib;
pub mod bufpool;
pub mod cache;
pub mod ckpt;
pub mod client;
pub mod cluster;
pub mod daemon;
mod framing;
pub mod meta;
pub mod metrics;
pub mod node;
pub mod pack;
pub mod placement;
pub mod prep;
pub mod stat;
pub mod trace;
pub mod wal;

/// Errors surfaced through the POSIX-style interface. Variants mirror the
/// errno values the intercepted libc functions would set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// ENOENT: no such file or directory.
    NotFound(String),
    /// EBADF: bad file descriptor.
    BadFd(i32),
    /// EACCES: operation violates the multi-read/single-write model.
    ReadOnly(String),
    /// EEXIST: the file was already written and closed (write-once).
    AlreadyExists(String),
    /// Data could not be decompressed (corrupt partition or codec
    /// mismatch).
    Corrupt(String),
    /// Communication with a remote daemon failed.
    Comm(String),
    /// A remote daemon did not answer within the configured deadline.
    Timeout(String),
    /// EINVAL: a byte-range read was malformed or out of bounds for the
    /// file (start >= end, or end beyond the file size).
    BadRange(String),
    /// ENAMETOOLONG / EINVAL: a path the store cannot hold — 256 bytes
    /// or more, or one with a NUL byte.
    BadPath(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::BadFd(fd) => write!(f, "bad file descriptor: {fd}"),
            FsError::ReadOnly(p) => write!(f, "write model violation: {p}"),
            FsError::AlreadyExists(p) => write!(f, "file already finalised: {p}"),
            FsError::Corrupt(p) => write!(f, "corrupt data: {p}"),
            FsError::Comm(m) => write!(f, "communication failure: {m}"),
            FsError::Timeout(m) => write!(f, "rpc deadline elapsed: {m}"),
            FsError::BadRange(m) => write!(f, "invalid byte range: {m}"),
            FsError::BadPath(m) => write!(f, "path the store cannot hold: {m}"),
        }
    }
}

impl std::error::Error for FsError {}
