//! Checked framing: the one place `fanstore` turns untrusted bytes into
//! integers, slices and counts. DESIGN.md §16 ("Byte layouts") lists the
//! formats; every one of them is read through [`Reader`], a cursor that
//! cannot overflow or index out of range and whose [`Reader::count`]
//! bounds each pre-allocation by what the remaining input could hold.
//!
//! The module also owns *where a CRC field sits* and how it is patched
//! and checked — how it is computed stays in [`fanstore_compress::crc32`]:
//!
//! * **trailing**, `body | crc32(body)`: [`seal_trailing`] /
//!   [`Reader::trailing_crc`] (the FCHK table, both manifests);
//! * **leading**, `crc32(rest) | rest`: [`reserve_crc`] +
//!   [`LeadingCrc::seal`] / [`Reader::leading_crc`] (GET_MANY entry
//!   frames, assembled in place). Both ends compose the CRC in the pass
//!   that writes or parses the frame: payload spans enter through
//!   [`LeadingCrc::span`] under a CRC-32 the sender already holds (taken
//!   at load or pack time) and the reader takes once, on arrival
//!   ([`Reader::hashed`]); only the header bytes between them are walked
//!   here;
//! * the written-last **publish record** `magic | version u16 | fields… |
//!   crc32`: [`begin_record`] … [`seal_trailing`] / [`open_record`].
//!
//! The write side has helpers only where a format is paired with a reader
//! method; plain integers are `extend_from_slice(&x.to_le_bytes())` at the
//! call site. A reader has one error, [`Malformed`], which each decoder
//! maps to the variant its callers already handle: `Corrupt` at rest,
//! `Comm` for replies, `BAD_REQUEST` for requests.

use fanstore_compress::crc32::{combine, crc32};

use crate::FsError;

const CHECKSUM: &str = "checksum mismatch";

/// What was wrong, and the byte offset the cursor had reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Malformed {
    what: &'static str,
    at: usize,
}

impl Malformed {
    fn message(self, format: &str) -> String {
        format!("{format}: {} at byte {}", self.what, self.at)
    }

    /// Bytes at rest (a partition, a manifest, a log) failed to parse.
    pub(crate) fn corrupt(self, format: &str) -> FsError {
        FsError::Corrupt(self.message(format))
    }

    /// A peer's reply failed to parse: damage a CRC caught is `Corrupt`
    /// (retryable on the next replica), anything else a framing `Comm`.
    pub(crate) fn reply(self, format: &str) -> FsError {
        if self.what == CHECKSUM {
            self.corrupt(format)
        } else {
            FsError::Comm(self.message(format))
        }
    }
}

/// A bounds-checked little-endian cursor over untrusted bytes. It holds
/// the unread tail as a slice and only ever splits it, so there is no
/// offset arithmetic to overflow.
#[derive(Debug, Clone)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, rest: buf }
    }

    /// Bytes consumed so far: the offset of whatever follows a header.
    pub(crate) fn consumed(&self) -> usize {
        self.buf.len() - self.rest.len()
    }

    /// An error at the current offset, for a check the caller makes on a
    /// value it has read (an unknown kind byte, say).
    pub(crate) fn fail(&self, what: &'static str) -> Malformed {
        Malformed { what, at: self.consumed() }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes.
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        let (out, rest) = self.rest.split_at_checked(n).ok_or(self.fail("truncated"))?;
        self.rest = rest;
        Ok(out)
    }

    /// Skip `n` bytes of padding.
    pub(crate) fn skip(&mut self, n: usize) -> Result<&mut Self, Malformed> {
        self.bytes(n)?;
        Ok(self)
    }

    /// The next bytes must be exactly `expected` (a magic, a version).
    pub(crate) fn tag(&mut self, expected: &[u8], what: &'static str) -> Result<(), Malformed> {
        (self.bytes(expected.len())? == expected).then_some(()).ok_or(self.fail(what))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        let (out, rest) = self.rest.split_first_chunk().ok_or(self.fail("truncated"))?;
        self.rest = rest;
        Ok(*out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, Malformed> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, Malformed> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, Malformed> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, Malformed> {
        self.array().map(u64::from_le_bytes)
    }

    /// `[u16 len][utf-8 bytes]` (written by [`put_str16`]).
    pub(crate) fn str16(&mut self) -> Result<&'a str, Malformed> {
        let len = self.u16()?;
        std::str::from_utf8(self.bytes(len.into())?).map_err(|_| self.fail("string is not utf-8"))
    }

    /// `[u32 len][bytes]`.
    pub(crate) fn bytes32(&mut self) -> Result<&'a [u8], Malformed> {
        let len = self.u32()?;
        self.bytes(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// `[u64 len][bytes]` (written by [`put_bytes64`]).
    pub(crate) fn bytes64(&mut self) -> Result<&'a [u8], Malformed> {
        let len = self.u64()?;
        self.bytes(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// `n` items of at least `min_item_bytes` each must fit in what
    /// remains: the bound every `Vec::with_capacity` in a decoder goes
    /// through, so a hostile count reserves no more than the input itself
    /// could describe.
    pub(crate) fn fits(&self, n: usize, min_item_bytes: usize) -> Result<usize, Malformed> {
        match n.checked_mul(min_item_bytes) {
            Some(need) if need <= self.rest.len() => Ok(n),
            _ => Err(self.fail("count exceeds input")),
        }
    }

    /// `[u32 count]`, bounded by [`Reader::fits`].
    pub(crate) fn count(&mut self, min_item_bytes: usize) -> Result<usize, Malformed> {
        let n = self.u32()?;
        self.fits(usize::try_from(n).unwrap_or(usize::MAX), min_item_bytes)
    }

    /// Everything not yet consumed (an opaque trailing payload).
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// Reject trailing bytes: a strict format ends where its fields end.
    pub(crate) fn finish(self) -> Result<(), Malformed> {
        self.is_empty().then_some(()).ok_or(self.fail("trailing bytes"))
    }

    /// Trailing placement: the next `u32` is the CRC-32 of every byte
    /// before it.
    pub(crate) fn trailing_crc(&mut self) -> Result<(), Malformed> {
        self.crc_over(&self.buf[..self.consumed()])
    }

    fn crc_over(&mut self, covered: &[u8]) -> Result<(), Malformed> {
        (self.u32()? == crc32(covered)).then_some(()).ok_or(self.fail(CHECKSUM))
    }

    /// Leading placement, checked in the pass that parses the frame: the
    /// next `u32` is the CRC-32 of every byte after it, to the end of the
    /// buffer. `parse` reads those bytes, taking each payload span through
    /// [`Reader::hashed`], and must consume them all. The check compares
    /// the field with the CRC composed from those span hashes and the
    /// bytes between them, which by construction is the CRC of the frame
    /// as it arrived, so damage anywhere under the field is a checksum
    /// error. A field that does not parse may itself be such damage: only
    /// on that error path is the frame hashed whole, to tell the two apart.
    pub(crate) fn leading_crc<T>(
        mut self,
        parse: impl FnOnce(&mut Self, &mut LeadingCrc) -> Result<T, Malformed>,
    ) -> Result<T, Malformed> {
        let mut crc = LeadingCrc::new(self.consumed());
        let sealed = self.u32()?;
        let parsed = parse(&mut self, &mut crc)
            .and_then(|v| self.is_empty().then_some(v).ok_or(self.fail("trailing bytes")));
        match parsed {
            Ok(v) if crc.value(self.buf) == sealed => Ok(v),
            Err(e) if crc32(&self.buf[crc.at + 4..]) == sealed => Err(e),
            _ => Err(self.fail(CHECKSUM)),
        }
    }

    /// The next `n` bytes and their CRC-32, folded into `crc`: the one
    /// pass over a payload span serves both the frame check and whatever
    /// the caller checks the span against.
    pub(crate) fn hashed(
        &mut self,
        n: usize,
        crc: &mut LeadingCrc,
    ) -> Result<(&'a [u8], u32), Malformed> {
        let start = self.consumed();
        let span = self.bytes(n)?;
        let span_crc = crc32(span);
        crc.span(&self.buf[..start], n, span_crc);
        Ok((span, span_crc))
    }
}

/// A leading CRC field and the CRC-32 of its frame, composed in the one
/// pass that writes or parses the frame. The CRC covers every byte after
/// the field. Payload spans enter under a CRC-32 the caller holds and are
/// never walked here; the few header bytes between them are, and the
/// pieces are joined with [`combine`]. The result is bit for bit the
/// value one pass over the finished frame would give.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeadingCrc {
    /// Offset of the CRC field in the frame's buffer.
    at: usize,
    /// Offset up to which bytes are folded in.
    walked: usize,
    /// CRC-32 of `buffer[at + 4..walked]`.
    crc: u32,
}

impl LeadingCrc {
    fn new(at: usize) -> Self {
        LeadingCrc { at, walked: at + 4, crc: 0 }
    }

    /// Fold in the bytes of `frame` past the previous span (`frame` ends
    /// where this span starts), then the `len`-byte span whose CRC-32 is
    /// `span_crc`.
    pub(crate) fn span(&mut self, frame: &[u8], len: usize, span_crc: u32) {
        let between = &frame[self.walked..];
        let crc = combine(self.crc, crc32(between), between.len() as u64);
        self.crc = combine(crc, span_crc, len as u64);
        self.walked = frame.len() + len;
    }

    /// The CRC of `frame` after the field, folding in what follows the
    /// last span.
    fn value(self, frame: &[u8]) -> u32 {
        let rest = &frame[self.walked..];
        combine(self.crc, crc32(rest), rest.len() as u64)
    }

    /// Leading placement, step two: patch the placeholder with the CRC of
    /// everything `out` holds after it.
    pub(crate) fn seal(self, out: &mut [u8]) {
        let crc = self.value(out);
        out[self.at..self.at + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Append `[u16 len][utf-8 bytes]` (read by [`Reader::str16`]).
///
/// # Panics
/// If `s` exceeds `u16::MAX` bytes; paths and object names are bounded far
/// below that by the pack format's 255-byte path field.
pub(crate) fn put_str16(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("string fits a u16 length prefix");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Append `[u64 len][bytes]` (read by [`Reader::bytes64`]).
pub(crate) fn put_bytes64(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Trailing placement: append the CRC-32 of everything in `out` so far.
pub(crate) fn seal_trailing(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Leading placement, step one: append a CRC placeholder and return the
/// [`LeadingCrc`] that composes and seals it as the frame is appended.
pub(crate) fn reserve_crc(out: &mut Vec<u8>) -> LeadingCrc {
    out.extend_from_slice(&[0u8; 4]);
    LeadingCrc::new(out.len() - 4)
}

/// Start a publish record: `magic | version u16`, to be followed by the
/// record's fields and closed with [`seal_trailing`].
pub(crate) fn begin_record(magic: [u8; 4], version: u16, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out
}

/// Open a publish record: the trailing CRC first, then magic and version.
/// Returns a cursor over the fields; the caller reads them and calls
/// [`Reader::finish`].
pub(crate) fn open_record(
    buf: &[u8],
    magic: [u8; 4],
    version: u16,
) -> Result<Reader<'_>, Malformed> {
    let body = buf.len().saturating_sub(4);
    Reader { buf, rest: &buf[body..] }.trailing_crc()?;
    let mut r = Reader::new(&buf[..body]);
    r.tag(&magic, "bad magic")?;
    r.tag(&version.to_le_bytes(), "unsupported version")?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_sequential_little_endian_and_checked() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0x0102u16.to_le_bytes());
        buf.extend_from_slice(&0x0304_0506u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        put_str16(&mut buf, "a/b");
        put_bytes64(&mut buf, b"xyz");
        buf.extend_from_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.str16(), Ok("a/b"));
        assert_eq!(r.bytes64(), Ok(&b"xyz"[..]));
        assert!(r.clone().finish().is_err(), "four bytes are left");
        assert_eq!(r.rest(), b"tail");
        assert!(r.is_empty() && r.u8().is_err() && r.finish().is_ok());
    }

    #[test]
    fn hostile_lengths_and_counts_are_errors_not_overflow() {
        // A u64 length of MAX: `pos + len` would wrap; the cursor compares
        // against what remains instead and stays where it was.
        let mut buf = u64::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let mut r = Reader::new(&buf);
        assert!(r.bytes64().is_err());
        assert_eq!(r.bytes(3), Ok(&b"abc"[..]), "a failed read consumes only its prefix");
        assert!(Reader::new(&[0xFF; 6]).bytes32().is_err());
        assert!(Reader::new(&[0xFF, 0xFF, b'a']).str16().is_err());
        assert!(Reader::new(&[1, 0, 0xFF]).str16().is_err(), "not utf-8");
        // count(): u32::MAX items can never fit, whatever the item size;
        // `n * min` overflowing usize is the same answer, not a wrap.
        let mut r = Reader::new(&[0xFF; 12]);
        assert!(r.count(1).is_err());
        assert!(r.fits(usize::MAX, 2).is_err());
        assert_eq!(r.fits(4, 2), Ok(4));
        assert!(r.fits(5, 2).is_err());
        // Zero-sized items bound nothing and must not divide by zero.
        assert_eq!(r.fits(1 << 40, 0), Ok(1 << 40));
    }

    #[test]
    fn both_crc_placements_roundtrip_and_detect_damage() {
        let mut rec = begin_record(*b"TEST", 3, 16);
        rec.extend_from_slice(&42u32.to_le_bytes());
        seal_trailing(&mut rec);
        let mut r = open_record(&rec, *b"TEST", 3).unwrap();
        assert_eq!(r.u32(), Ok(42));
        assert!(r.finish().is_ok());
        assert!(open_record(&rec, *b"TSET", 3).is_err());
        assert!(open_record(&rec, *b"TEST", 4).is_err());
        for cut in 0..rec.len() {
            assert!(open_record(&rec[..cut], *b"TEST", 3).is_err(), "cut {cut}");
        }
        for i in 0..rec.len() {
            let mut bad = rec.clone();
            bad[i] ^= 1;
            assert!(open_record(&bad, *b"TEST", 3).is_err(), "flip {i}");
        }

        // A leading frame `9 | crc | len u8 | span | tail`: the writer
        // composes the CRC from the span's known CRC, the reader from its
        // own hash of the span; both equal one pass over the frame.
        let span = b"payload span";
        let mut frame = vec![9u8];
        let mut crc = reserve_crc(&mut frame);
        frame.push(span.len() as u8);
        crc.span(&frame, span.len(), crc32(span));
        frame.extend_from_slice(span);
        frame.extend_from_slice(b"tail");
        crc.seal(&mut frame);
        assert_eq!(frame[1..5], crc32(&frame[5..]).to_le_bytes());
        let read = |buf: &[u8]| {
            let mut r = Reader::new(buf);
            r.u8()?;
            r.leading_crc(|r, crc| {
                let n = r.u8()?.into();
                let (got, got_crc) = r.hashed(n, crc)?;
                assert_eq!(got_crc, crc32(got));
                r.tag(b"tail", "bad tail")?;
                Ok(got.to_vec())
            })
        };
        assert_eq!(read(&frame), Ok(span.to_vec()));
        for i in 1..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x80;
            let err = read(&bad).expect_err("flip");
            assert_eq!(err.what, CHECKSUM, "flip {i}: damage under the CRC is a checksum error");
        }
        // A field that does not parse under a CRC that holds is the
        // parser's error, not a checksum error.
        let mut short = frame.clone();
        short[5] = 200;
        let crc = crc32(&short[5..]);
        short[1..5].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(read(&short).map_err(|e| e.what), Err("truncated"));
        let mut padded = frame.clone();
        padded.push(0);
        let crc = crc32(&padded[5..]);
        padded[1..5].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(read(&padded).map_err(|e| e.what), Err("trailing bytes"));
    }
}
