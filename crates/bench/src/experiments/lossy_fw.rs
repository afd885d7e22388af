//! Future-work experiment (paper §VIII): lossy compression of the
//! floating-point datasets, against the best lossless ratios — SZ-style
//! error-bounded coding (`lossy::SzLite`) and ZFP-style fixed precision,
//! which is a prefix of the store's bit-plane tiers (`progressive`).
//!
//! The paper ends: "In future work we aim to investigate additional
//! applications and compression methods, including lossy compressors such
//! as SZ and ZFP as examined in the CODAR project." This experiment runs
//! that study on the *float content* of the two float-heavy datasets —
//! tokamak-style diagnostic traces and astronomy-style pixel frames,
//! generated as `f32` arrays with the same signal character as the
//! synthetic datasets (lossy coders operate on typed arrays, not on file
//! bytes with ASCII headers).

use fanstore_compress::lossy::SzLite;
use fanstore_compress::progressive::{
    decode_prefix, encode_tiers, max_abs_error, prefix_error_bound,
};
use fanstore_compress::registry::parse_name;

use crate::report::{fmt_f, md_table};

/// Tokamak-style trace: step-hold drifting diagnostic with sensor noise.
fn tokamak_signal(n: usize) -> Vec<f32> {
    let mut x = 0x1357_9BDFu32;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x as f32 / u32::MAX as f32
    };
    let mut v = 1200.0f32;
    let mut hold = 0usize;
    (0..n)
        .map(|_| {
            if hold == 0 {
                v *= 1.0 + (rnd() - 0.5) * 2e-4;
                hold = 2 + (rnd() * 4.0) as usize;
            }
            hold -= 1;
            v + (rnd() - 0.5) * 0.01
        })
        .collect()
}

/// Astronomy-style frame: smooth sky background + read noise + rare stars.
fn astro_signal(n: usize) -> Vec<f32> {
    let mut x = 0x2468_ACE0u32;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x as f32 / u32::MAX as f32
    };
    (0..n)
        .map(|i| {
            let sky = 100.0 + 20.0 * ((i as f32) * 0.001).sin();
            let noise = (rnd() - 0.5) * 2.0;
            let star = if rnd() < 0.0005 { 5000.0 * rnd() } else { 0.0 };
            sky + noise + star
        })
        .collect()
}

fn lossless_ratio(values: &[f32], codec: &str) -> f64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let c = fanstore_compress::registry::create(parse_name(codec).unwrap()).unwrap();
    let out = fanstore_compress::compress_to_vec(c.as_ref(), &bytes);
    bytes.len() as f64 / out.len() as f64
}

/// Generate the lossy future-work report; `n` scales the signal lengths.
pub fn run(n: usize) -> String {
    let mut out = String::from(
        "## Future work (§VIII) — lossy compression on float datasets (measured)\n\n\
         SZ-style error-bounded prediction+quantisation, and ZFP-style fixed\n\
         precision as a prefix of the store's 32 bit-plane tiers (`planes(k)`\n\
         keeps the sign, 8 exponent and k-9 mantissa planes), vs the best\n\
         lossless ratio, on float arrays with the tokamak-trace and astronomy-\n\
         frame signal character. Training-accuracy impact is out of scope (as in\n\
         the paper); this quantifies the storage side of the tradeoff the CODAR\n\
         project studies.\n\n",
    );

    let cases: [(&str, Vec<f32>); 2] = [
        ("tokamak-style traces", tokamak_signal(n.max(1) * 20_000)),
        ("astro-style frames", astro_signal(n.max(1) * 20_000)),
    ];
    for (name, values) in cases {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let lzma = lossless_ratio(&values, "lzma-6");

        let mut rows = Vec::new();
        for eb in [1e-1f32, 1e-2, 1e-3, 1e-4] {
            let sz = SzLite::new(eb);
            let c = sz.compress(&values);
            let restored = sz.decompress(&c, values.len()).unwrap();
            let worst =
                values.iter().zip(&restored).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            rows.push(vec![
                sz.name(),
                fmt_f(bytes.len() as f64 / c.len() as f64),
                format!("{worst:.2e}"),
                format!("{eb:.0e}"),
            ]);
        }
        let tiers = encode_tiers(&bytes, 32);
        // 9 sign/exponent planes plus 8, 12 and 16 mantissa planes.
        for kept in [17u8, 21, 25] {
            let prefix: Vec<&[u8]> = tiers[..usize::from(kept)].iter().map(Vec::as_slice).collect();
            let stored: usize = prefix.iter().map(|t| t.len()).sum();
            let mut approx = Vec::new();
            decode_prefix(&prefix, bytes.len(), &mut approx).unwrap();
            rows.push(vec![
                format!("planes({kept})"),
                fmt_f(bytes.len() as f64 / stored as f64),
                format!("{:.2e}", max_abs_error(&bytes, &approx)),
                format!("{:.2e}", prefix_error_bound(&bytes, 32, kept)),
            ]);
        }
        out.push_str(&format!(
            "### {} ({} float32 values)\n\nBest lossless (lzma-6) ratio on the raw \
             bytes: **{}**.\n\n{}\n",
            name,
            values.len(),
            fmt_f(lzma),
            md_table(&["codec", "ratio", "measured max err", "guaranteed bound"], &rows),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_report_produces_both_cases() {
        let r = run(1);
        assert!(r.contains("tokamak-style"));
        assert!(r.contains("astro-style"));
        assert!(r.contains("sz(1e-2)"));
        assert!(r.contains("planes(21)"));
        // Every row's measured error is within its guaranteed bound.
        let rows: Vec<Vec<&str>> = r
            .lines()
            .filter(|l| l.starts_with("| sz(") || l.starts_with("| planes("))
            .map(|l| l.split('|').map(str::trim).collect())
            .collect();
        assert_eq!(rows.len(), 14, "four sz and three planes rows per dataset");
        for row in rows {
            let (measured, bound) =
                (row[3].parse::<f64>().unwrap(), row[4].parse::<f64>().unwrap());
            assert!(measured <= bound, "{row:?}");
        }
    }

    #[test]
    fn sz_beats_lossless_on_the_astro_signal() {
        // The headline of the future-work study: an error bound buys ratio
        // the lossless frontier cannot reach.
        let values = astro_signal(20_000);
        let lossless = lossless_ratio(&values, "lzma-6");
        let sz = SzLite::new(1e-2);
        let ratio = (values.len() * 4) as f64 / sz.compress(&values).len() as f64;
        assert!(ratio > lossless, "sz {ratio:.2} should beat lossless {lossless:.2}");
    }
}
