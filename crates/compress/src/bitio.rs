//! Little-endian bit-level I/O used by the Huffman-based codecs.
//!
//! Bits are packed LSB-first into a byte stream, which lets the reader
//! refill a 64-bit buffer with unaligned loads — the same trick DEFLATE
//! and zstd decoders use to stay branch-light on the hot path.

use crate::CodecError;

/// LSB-first bit writer appending to a `Vec<u8>`.
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits accumulated but not yet flushed, LSB-aligned.
    acc: u64,
    /// Number of valid bits in `acc` (< 8 after every `write` call returns).
    nbits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        BitWriter { out: Vec::new(), acc: 0, nbits: 0 }
    }

    /// Create a writer with pre-reserved output capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BitWriter { out: Vec::with_capacity(cap), acc: 0, nbits: 0 }
    }

    /// Append the low `count` bits of `bits` (count <= 57).
    #[inline]
    pub fn write(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 57);
        debug_assert!(count == 64 || bits < (1u64 << count));
        self.acc |= bits << self.nbits;
        self.nbits += count;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Flush any partial byte (zero-padded) and return the byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

impl Default for BitWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// LSB-first bit reader over a byte slice.
pub struct BitReader<'a> {
    input: &'a [u8],
    /// Next byte to load into the accumulator.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        BitReader { input, pos: 0, acc: 0, nbits: 0 }
    }

    /// Ensure at least `count` bits are buffered (count <= 57).
    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.input.len() {
            self.acc |= u64::from(self.input[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `count` bits (count <= 57). Returns an error if the stream is
    /// exhausted (including its zero padding).
    #[inline]
    pub fn read(&mut self, count: u32) -> Result<u64, CodecError> {
        debug_assert!(count <= 57);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::Truncated);
            }
        }
        let mask = if count == 64 { u64::MAX } else { (1u64 << count) - 1 };
        let v = self.acc & mask;
        self.acc >>= count;
        self.nbits -= count;
        Ok(v)
    }

    /// Peek up to `count` bits without consuming. Bits beyond the end of
    /// the stream read as zero (canonical-Huffman decoders rely on this to
    /// decode the final symbols without over-read checks).
    #[inline]
    pub fn peek(&mut self, count: u32) -> u64 {
        debug_assert!(count <= 57);
        if self.nbits < count {
            self.refill();
        }
        let mask = if count >= 64 { u64::MAX } else { (1u64 << count) - 1 };
        self.acc & mask
    }

    /// Consume `count` bits previously peeked. `count` may exceed the
    /// remaining real bits only by the amount of zero padding tolerated by
    /// `peek`; consuming past that is an error.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<(), CodecError> {
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::Truncated);
            }
        }
        self.acc >>= count;
        self.nbits -= count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let fields: &[(u64, u32)] =
            &[(1, 1), (0b1011, 4), (0xdead, 16), (0, 3), (0x1f_ffff, 21), (42, 7)];
        for &(v, n) in fields {
            w.write(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            assert_eq!(r.read(n).unwrap(), v);
        }
    }

    #[test]
    fn peek_then_consume_matches_read() {
        let mut w = BitWriter::new();
        w.write(0b1101_0110, 8);
        w.write(0x3ff, 10);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(8), 0b1101_0110);
        r.consume(8).unwrap();
        assert_eq!(r.read(10).unwrap(), 0x3ff);
    }

    #[test]
    fn read_past_end_is_error() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3).unwrap(), 0b101);
        // The padding supplies 5 more zero bits, then the stream is dry.
        assert_eq!(r.read(5).unwrap(), 0);
        assert_eq!(r.read(1), Err(CodecError::Truncated));
    }

    #[test]
    fn peek_beyond_end_reads_zero() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(16), 0x00ff);
    }

    #[test]
    fn long_stream_roundtrip() {
        let mut w = BitWriter::new();
        for i in 0..10_000u64 {
            w.write(i % 31, 5);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for i in 0..10_000u64 {
            assert_eq!(r.read(5).unwrap(), i % 31);
        }
    }
}
