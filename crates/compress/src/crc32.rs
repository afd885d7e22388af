//! CRC-32 (IEEE 802.3 polynomial): the checksum behind every integrity
//! field in the store — GET_MANY entry frames, FCHK tables and chunks,
//! checkpoint/WAL record frames, both publish manifests — and the `xz`
//! container's payload check. `fanstore::framing` decides where a CRC
//! field sits; this module only computes it.

/// Byte-at-a-time lookup table for the reflected polynomial 0xEDB88320.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        for &b in data {
            crc = TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn differs_on_single_bit_flip() {
        let mut data = vec![0u8; 128];
        let base = crc32(&data);
        data[64] ^= 0x10;
        assert_ne!(crc32(&data), base);
    }
}
