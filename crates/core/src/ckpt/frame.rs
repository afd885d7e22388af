//! The record frame: checkpoint segments and the WAL log are both
//! byte-concatenations of it (layout: DESIGN.md §16 "Byte layouts",
//! row 11).
//!
//! The frame's CRC covers the stored payload, so every chunk verifies
//! independently; `raw_len` is the chunk's length after decompression
//! (and delta reversal — a delta buffer is exactly as long as the chunk
//! it encodes). Flag bit 0 marks the payload as a byte-delta against the
//! base generation's chunk at the same index.
//!
//! [`scan_segment`] is the *tolerant* reader used by recovery: it parses
//! frames until the first truncated or CRC-failing one and reports the
//! torn tail instead of erroring, mirroring how a crash tears the end of
//! an append-only log. [`decode_segment`] is the strict form used on
//! verified restore paths, where a torn frame is corruption.

use fanstore_compress::crc32::crc32;
use fanstore_compress::CodecId;

use crate::framing::{Malformed, Reader};
use crate::FsError;

/// Flag bit 0: the payload decompresses to a byte-delta against the base
/// generation's chunk at the same index.
pub const FLAG_DELTA: u8 = 1;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame flags ([`FLAG_DELTA`]).
    pub flags: u8,
    /// Codec of `payload`.
    pub codec: CodecId,
    /// Chunk length after decompression (and delta reversal).
    pub raw_len: u32,
    /// Stored (compressed) bytes, CRC-verified.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Whether the payload is delta-encoded against the base generation.
    pub fn is_delta(&self) -> bool {
        self.flags & FLAG_DELTA != 0
    }
}

/// Append one frame to `out`.
pub fn encode_frame(out: &mut Vec<u8>, flags: u8, codec: CodecId, raw_len: u32, payload: &[u8]) {
    encode_frame_with(out, flags, codec, raw_len, |out| out.extend_from_slice(payload));
}

/// [`encode_frame`] for a payload the caller has in pieces: `fill`
/// appends the stored bytes to `out` behind the header, and the length
/// and CRC fields are patched from what it wrote — the payload is never
/// joined in a buffer of its own first.
pub fn encode_frame_with(
    out: &mut Vec<u8>,
    flags: u8,
    codec: CodecId,
    raw_len: u32,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    out.push(flags);
    out.extend_from_slice(&codec.0.to_le_bytes());
    out.extend_from_slice(&raw_len.to_le_bytes());
    let fields = out.len();
    out.extend_from_slice(&[0u8; 8]); // stored_len, crc
    let payload = out.len();
    fill(out);
    let stored_len = (out.len() - payload) as u32;
    let crc = crc32(&out[payload..]);
    out[fields..fields + 4].copy_from_slice(&stored_len.to_le_bytes());
    out[fields + 4..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Read one frame at the cursor; a short header, a short payload and a
/// CRC mismatch are all the same torn tail to the callers.
fn read_frame(r: &mut Reader<'_>) -> Result<Frame, Malformed> {
    let (flags, codec, raw_len) = (r.u8()?, CodecId(r.u16()?), r.u32()?);
    let (stored_len, crc) = (r.u32()?, r.u32()?);
    let payload = r.bytes(stored_len as usize)?;
    if crc32(payload) != crc {
        return Err(r.fail("frame checksum mismatch"));
    }
    Ok(Frame { flags, codec, raw_len, payload: payload.to_vec() })
}

/// Tolerant scan: parse frames front-to-back, stopping at the first
/// truncated header, truncated payload, or CRC mismatch. Returns the
/// frames that verified plus whether a torn tail was found.
pub fn scan_segment(buf: &[u8]) -> (Vec<Frame>, bool) {
    let mut frames = Vec::new();
    let mut r = Reader::new(buf);
    while !r.is_empty() {
        match read_frame(&mut r) {
            Ok(frame) => frames.push(frame),
            Err(_) => return (frames, true),
        }
    }
    (frames, false)
}

/// Strict decode: every byte must belong to a verified frame. Used on
/// restore paths where the segment was already matched against its
/// manifest CRC — a torn tail here is corruption, not a crash artifact.
pub fn decode_segment(buf: &[u8]) -> Result<Vec<Frame>, FsError> {
    match scan_segment(buf) {
        (frames, false) => Ok(frames),
        (_, true) => Err(FsError::Corrupt("segment has a torn or corrupt tail".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanstore_compress::CodecFamily;

    /// Frame header length in bytes.
    const HEADER: usize = 1 + 2 + 4 + 4 + 4;

    fn codec() -> CodecId {
        CodecId::new(CodecFamily::Store, 0)
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut seg = Vec::new();
        encode_frame(&mut seg, 0, codec(), 4, b"abcd");
        encode_frame(&mut seg, FLAG_DELTA, codec(), 9, b"x");
        let frames = decode_segment(&seg).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].payload, b"abcd");
        assert!(!frames[0].is_delta());
        assert_eq!(frames[1].raw_len, 9);
        assert!(frames[1].is_delta());
    }

    #[test]
    fn torn_tail_tolerated_by_scan_rejected_by_decode() {
        let mut seg = Vec::new();
        encode_frame(&mut seg, 0, codec(), 4, b"abcd");
        encode_frame(&mut seg, 0, codec(), 6, b"efghij");
        for cut in 1..HEADER + 6 {
            let torn = &seg[..seg.len() - cut];
            let (frames, is_torn) = scan_segment(torn);
            assert!(is_torn, "cut {cut}: tail must read as torn");
            assert_eq!(frames.len(), 1, "cut {cut}: intact prefix survives");
            assert_eq!(frames[0].payload, b"abcd");
            assert!(decode_segment(torn).is_err(), "strict decode rejects");
        }
    }

    #[test]
    fn corrupt_payload_detected_by_crc() {
        let mut seg = Vec::new();
        encode_frame(&mut seg, 0, codec(), 8, b"payload!");
        let last = seg.len() - 1;
        seg[last] ^= 0x10;
        let (frames, torn) = scan_segment(&seg);
        assert!(torn);
        assert!(frames.is_empty());
    }

    #[test]
    fn empty_segment_is_whole() {
        let (frames, torn) = scan_segment(&[]);
        assert!(frames.is_empty());
        assert!(!torn);
        assert!(decode_segment(&[]).unwrap().is_empty());
    }
}
