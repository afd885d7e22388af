//! The 144-byte per-file stat block of the pack format (Table I).
//!
//! The paper stores the POSIX `struct stat` (144 bytes on x86_64 glibc)
//! for every file so that intercepted `stat()` calls can be answered from
//! RAM without touching the shared file system, and notes that "extra
//! fields in the file metadata" carry locality information (§IV-C1).
//! We reproduce the field layout of glibc's x86_64 `struct stat` and use
//! one of its three reserved trailing slots for the owner rank.

use crate::framing::{Malformed, Reader};
use crate::FsError;

/// Size of the encoded stat block, matching Table I.
pub const STAT_SIZE: usize = 144;

/// File attributes, mirroring `struct stat` on x86_64 Linux plus
/// FanStore's locality extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Device id (synthetic: FanStore mount id).
    pub dev: u64,
    /// Inode number (assigned sequentially at pack time).
    pub ino: u64,
    /// Hard-link count (always 1 for packed files).
    pub nlink: u64,
    /// Mode bits: `S_IFREG | 0644` for files, `S_IFDIR | 0755` for dirs.
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Uncompressed file size in bytes.
    pub size: u64,
    /// Preferred I/O block size.
    pub blksize: u64,
    /// 512-byte blocks allocated.
    pub blocks: u64,
    /// Access / modification / status-change times (seconds).
    pub atime: u64,
    /// Modification time (seconds).
    pub mtime: u64,
    /// Status-change time (seconds).
    pub ctime: u64,
    /// FanStore extension (a glibc reserved slot): the rank whose
    /// partition holds this file's compressed bytes.
    pub owner_rank: u32,
    /// FanStore extension (the second reserved slot): the rank that
    /// actually served this stat's GET reply. Stamped by the daemon;
    /// differs from `owner_rank` when a replica answered during failover.
    /// `u32::MAX` = not served over the wire.
    pub served_by: u32,
}

/// `S_IFREG` bit for [`FileStat::mode`].
pub const S_IFREG: u32 = 0o100000;
/// `S_IFDIR` bit for [`FileStat::mode`].
pub const S_IFDIR: u32 = 0o040000;

impl FileStat {
    /// A regular file of `size` bytes.
    pub fn regular(ino: u64, size: u64) -> Self {
        FileStat {
            dev: 0xFA57,
            ino,
            nlink: 1,
            mode: S_IFREG | 0o644,
            uid: 1000,
            gid: 1000,
            size,
            blksize: 4096,
            blocks: size.div_ceil(512),
            atime: 0,
            mtime: 0,
            ctime: 0,
            owner_rank: u32::MAX,
            served_by: u32::MAX,
        }
    }

    /// A directory entry.
    pub fn directory(ino: u64) -> Self {
        FileStat { mode: S_IFDIR | 0o755, size: 4096, ..FileStat::regular(ino, 4096) }
    }

    /// True if this is a directory.
    pub fn is_dir(&self) -> bool {
        self.mode & S_IFDIR != 0
    }

    /// Encode into the 144-byte block (glibc x86_64 field order).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&self.dev.to_le_bytes()); // st_dev
        out.extend_from_slice(&self.ino.to_le_bytes()); // st_ino
        out.extend_from_slice(&self.nlink.to_le_bytes()); // st_nlink
        out.extend_from_slice(&self.mode.to_le_bytes()); // st_mode
        out.extend_from_slice(&self.uid.to_le_bytes()); // st_uid
        out.extend_from_slice(&self.gid.to_le_bytes()); // st_gid
        out.extend_from_slice(&0u32.to_le_bytes()); // __pad0
        out.extend_from_slice(&0u64.to_le_bytes()); // st_rdev
        out.extend_from_slice(&(self.size as i64).to_le_bytes()); // st_size
        out.extend_from_slice(&(self.blksize as i64).to_le_bytes()); // st_blksize
        out.extend_from_slice(&(self.blocks as i64).to_le_bytes()); // st_blocks
        for t in [self.atime, self.mtime, self.ctime] {
            out.extend_from_slice(&(t as i64).to_le_bytes()); // tv_sec
            out.extend_from_slice(&0i64.to_le_bytes()); // tv_nsec
        }
        // glibc reserves three trailing longs; FanStore uses the first for
        // the owner rank (the "extra fields" of §IV-C1) and the second for
        // the serving rank (failover provenance).
        out.extend_from_slice(&u64::from(self.owner_rank).to_le_bytes());
        out.extend_from_slice(&u64::from(self.served_by).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        debug_assert_eq!(out.len() - start, STAT_SIZE);
    }

    /// Decode from a 144-byte block (bytes past it are ignored).
    pub fn decode(buf: &[u8]) -> Result<Self, FsError> {
        Self::read(&mut Reader::new(buf)).map_err(|e| e.corrupt("stat block"))
    }

    /// Read the 144-byte block at the cursor.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, Malformed> {
        let mut r = Reader::new(r.bytes(STAT_SIZE)?);
        Ok(FileStat {
            dev: r.u64()?,
            ino: r.u64()?,
            nlink: r.u64()?,
            mode: r.u32()?,
            uid: r.u32()?,
            gid: r.u32()?,
            size: r.skip(4 + 8)?.u64()?, // past __pad0 and st_rdev
            blksize: r.u64()?,
            blocks: r.u64()?,
            atime: r.u64()?,
            mtime: r.skip(8)?.u64()?, // each tv_sec is followed by an unused tv_nsec
            ctime: r.skip(8)?.u64()?,
            owner_rank: r.skip(8)?.u64()? as u32,
            served_by: r.u64()? as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_size_is_exactly_144() {
        let mut buf = Vec::new();
        FileStat::regular(1, 12345).encode(&mut buf);
        assert_eq!(buf.len(), STAT_SIZE);
    }

    #[test]
    fn roundtrip_regular() {
        let mut s = FileStat::regular(42, 1 << 33);
        s.owner_rank = 511;
        s.served_by = 3;
        s.mtime = 1_700_000_000;
        let mut buf = Vec::new();
        s.encode(&mut buf);
        assert_eq!(FileStat::decode(&buf).unwrap(), s);
    }

    #[test]
    fn roundtrip_directory() {
        let d = FileStat::directory(7);
        assert!(d.is_dir());
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let back = FileStat::decode(&buf).unwrap();
        assert!(back.is_dir());
        assert_eq!(back, d);
    }

    #[test]
    fn blocks_computed_from_size() {
        let s = FileStat::regular(1, 1025);
        assert_eq!(s.blocks, 3); // ceil(1025/512)
    }

    #[test]
    fn truncated_decode_rejected() {
        assert!(FileStat::decode(&[0u8; 100]).is_err());
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let mut buf = Vec::new();
        let s = FileStat::regular(9, 10);
        s.encode(&mut buf);
        buf.extend_from_slice(&[0xAA; 32]);
        assert_eq!(FileStat::decode(&buf).unwrap(), s);
    }
}
