//! The LZ4 encoders emit the bytes the retained two-pass form emits.
//!
//! A fixed-seed slice of `crates/compress/tests/prop_encode.rs` that runs
//! with the root package's tests: `lz4fast` (the WAL flush codec) and
//! `lz4hc` (prep's and the checkpoint store's) write their block while the
//! match finder is still parsing, and every stored partition, chunk and
//! segment depends on that producing exactly what collecting the parse and
//! emitting it afterwards produced. The full suite — every registry id,
//! the token-format edges, the parser grid — is the per-crate one.

use fanstore_repro::compress::registry::create;
use fanstore_repro::compress::{
    compress_to_vec, decompress_to_vec, reference, CodecFamily, CodecId,
};
use fanstore_repro::datagen::{DatasetKind, DatasetSpec};

/// The fused encoder against `reference::lz4_two_pass`, and the block
/// through both decoders.
fn identical(id: CodecId, data: &[u8]) {
    let codec = create(id).unwrap();
    let fused = compress_to_vec(codec.as_ref(), data);
    let n = data.len();
    assert!(fused == reference::lz4_two_pass(id, data).unwrap(), "{id}: {n} bytes");
    assert!(decompress_to_vec(codec.as_ref(), &fused, n).as_deref() == Ok(data), "{id}: {n}");
    let mut bytewise = Vec::new();
    reference::lz4_block(&fused, n, &mut bytewise).unwrap();
    assert!(bytewise == data, "{id}: {n} bytes through reference::lz4_block");
}

#[test]
fn lz4_encoders_emit_what_the_two_pass_form_emits() {
    let ids = [
        CodecId::new(CodecFamily::Lz4Fast, 1),
        CodecId::new(CodecFamily::Lz4Fast, 4),
        CodecId::new(CodecFamily::Lz4Hc, 1),
        CodecId::new(CodecFamily::Lz4Hc, 6),
        CodecId::new(CodecFamily::Lz4Hc, 9),
    ];
    // One generated file of every dataset family, whole (past the 64 KiB
    // window for most) and as the 16 KiB values the write path flushes.
    for kind in DatasetKind::ALL {
        let file = DatasetSpec::scaled(kind, 1, 0x1DE7).generate(0);
        let file = &file[..file.len().min(96 << 10)];
        for id in ids {
            identical(id, file);
            for value in file.chunks(16 << 10).take(3) {
                identical(id, value);
            }
        }
    }
    // The sizes around the parsers' all-literals cut-over, a run and noise.
    let mut x = 0x2545_F491u32;
    let noise: Vec<u8> = (0..5000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect();
    for id in ids {
        for n in 0..=12 {
            identical(id, &noise[..n]);
        }
        identical(id, &noise);
        identical(id, &vec![7u8; 70 << 10]);
    }
}
