//! WAL record framing and torn-tail-tolerant replay.
//!
//! The log is a byte-concatenation of the checkpoint store's record
//! frames ([`crate::ckpt::frame`]) — reused verbatim rather than
//! duplicated, so a torn log tail is recognised by exactly the code path
//! the chaos tests already exercise. Each frame's payload is one
//! [`WalRecord`] (DESIGN.md §16 "Byte layouts", rows 11–12).
//!
//! WAL payloads are stored uncompressed (codec = store): the log is
//! short-lived — flush trims it — and compression belongs to the
//! segment flush, not the latency-critical commit path.
//!
//! A record's second 8-byte word is reserved and always written as 0;
//! replay reads a nonzero one as damage and ends the scan there, as at
//! any other malformed record.

use fanstore_compress::{CodecFamily, CodecId};

use crate::ckpt::frame::{encode_frame_with, scan_segment};
use crate::framing::{put_str16, Malformed, Reader};

/// Record flag bit: the record is a tombstone (an `unlink`); it carries
/// no value bytes.
pub const FLAG_TOMBSTONE: u8 = 1;

/// One write-ahead-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (the store-wide version order).
    pub seq: u64,
    /// Whether this record deletes the key instead of writing it.
    pub tombstone: bool,
    /// The object path.
    pub path: String,
    /// The value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

/// Append one record to `out` as a CRC frame.
pub fn encode_record(out: &mut Vec<u8>, rec: &WalRecord) {
    let value = (!rec.tombstone).then_some(rec.value.as_slice());
    encode_parts(out, rec.seq, &rec.path, value);
}

/// [`encode_record`] from borrowed parts (`value: None` is a tombstone):
/// the store's append path, which owns no [`WalRecord`] — the value's one
/// copy is the one into the log batch.
pub fn encode_parts(out: &mut Vec<u8>, seq: u64, path: &str, value: Option<&[u8]>) {
    let bytes = value.unwrap_or_default();
    let len = 8 + 8 + 1 + 2 + path.len() + bytes.len();
    let stored_raw = CodecId::new(CodecFamily::Store, 0);
    encode_frame_with(out, 0, stored_raw, len as u32, |out| {
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // reserved
        out.push(if value.is_none() { FLAG_TOMBSTONE } else { 0 });
        put_str16(out, path);
        out.extend_from_slice(bytes);
    });
}

/// Decode one frame payload back into a record.
fn decode_payload(buf: &[u8]) -> Result<WalRecord, Malformed> {
    let mut r = Reader::new(buf);
    let seq = r.u64()?;
    if r.u64()? != 0 {
        return Err(r.fail("nonzero reserved field"));
    }
    let tombstone = r.u8()? & FLAG_TOMBSTONE != 0;
    let path = r.str16()?.to_string();
    let value = r.rest().to_vec();
    if tombstone && !value.is_empty() {
        return Err(r.fail("tombstone with value bytes"));
    }
    Ok(WalRecord { seq, tombstone, path, value })
}

/// Tolerant replay of a log blob: records up to the first torn or
/// corrupt frame, plus whether a torn tail was found. A frame that
/// CRC-verifies but decodes to a malformed record also stops the scan
/// as torn — replay must never apply a half-understood record.
pub fn replay(buf: &[u8]) -> (Vec<WalRecord>, bool) {
    let (frames, mut torn) = scan_segment(buf);
    let mut records = Vec::with_capacity(frames.len());
    for f in frames {
        match decode_payload(&f.payload) {
            Ok(r) => records.push(r),
            Err(_) => {
                torn = true;
                break;
            }
        }
    }
    (records, torn)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, path: &str, value: &[u8]) -> WalRecord {
        WalRecord { seq, tombstone: false, path: path.into(), value: value.to_vec() }
    }

    #[test]
    fn roundtrip_puts_and_tombstones() {
        let mut log = Vec::new();
        encode_record(&mut log, &rec(1, "a/b", b"hello"));
        let tomb = WalRecord { seq: 2, tombstone: true, path: "a/b".into(), value: Vec::new() };
        encode_record(&mut log, &tomb);
        let (records, torn) = replay(&log);
        assert!(!torn);
        assert_eq!(records, vec![rec(1, "a/b", b"hello"), tomb]);
    }

    #[test]
    fn torn_tail_keeps_intact_prefix() {
        let mut log = Vec::new();
        encode_record(&mut log, &rec(1, "x", b"one"));
        encode_record(&mut log, &rec(2, "y", b"two"));
        let second_frame = log.len() / 2; // identical records → identical frames
        for cut in 1..second_frame {
            let (records, torn) = replay(&log[..log.len() - cut]);
            assert!(torn, "cut {cut}");
            assert_eq!(records.len(), 1, "cut {cut}: first record survives");
            assert_eq!(records[0].path, "x");
        }
        // A cut exactly on the frame boundary is indistinguishable from
        // a clean shorter log — and must replay as one.
        let (records, torn) = replay(&log[..log.len() - second_frame]);
        assert!(!torn);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn corrupt_byte_stops_replay() {
        let mut log = Vec::new();
        encode_record(&mut log, &rec(7, "k", b"value bytes"));
        let last = log.len() - 3;
        log[last] ^= 0x40;
        let (records, torn) = replay(&log);
        assert!(torn);
        assert!(records.is_empty());
    }

    #[test]
    fn empty_log_is_whole() {
        let (records, torn) = replay(&[]);
        assert!(records.is_empty());
        assert!(!torn);
    }
}
