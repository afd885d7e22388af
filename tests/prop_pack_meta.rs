//! Property-based tests on the pack format and the metadata tables: the
//! two structures whose invariants every other component leans on.

use fanstore_repro::compress::{CodecFamily, CodecId};
use fanstore_repro::store::meta::{MetaEntry, MetaTable};
use fanstore_repro::store::pack::{parse_partition, PartitionBuilder};
use fanstore_repro::store::stat::FileStat;
use proptest::prelude::*;

/// Strategy for plausible relative paths (non-empty, < 256 bytes, no NUL).
fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9_]{1,12}", 1..5).prop_map(|segs| segs.join("/"))
}

fn entry_strategy() -> impl Strategy<Value = (String, Vec<u8>)> {
    (path_strategy(), proptest::collection::vec(any::<u8>(), 0..512))
}

/// Drop entries whose path collides with another entry's path as a
/// directory prefix (a name cannot be both a file and a directory — real
/// file systems forbid it and the prep tool never produces it).
fn dedup_namespace(entries: Vec<(String, Vec<u8>)>) -> Vec<(String, Vec<u8>)> {
    let mut kept: Vec<(String, Vec<u8>)> = Vec::new();
    'outer: for (path, data) in entries {
        for (other, _) in &kept {
            if other == &path
                || other.starts_with(&format!("{path}/"))
                || path.starts_with(&format!("{other}/"))
            {
                continue 'outer;
            }
        }
        kept.push((path, data));
    }
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_roundtrips_arbitrary_entries(entries in proptest::collection::vec(entry_strategy(), 0..20)) {
        let codec = CodecId::new(CodecFamily::Store, 0);
        let mut builder = PartitionBuilder::new();
        for (i, (path, data)) in entries.iter().enumerate() {
            let mut stat = FileStat::regular(i as u64, data.len() as u64);
            stat.owner_rank = (i % 7) as u32;
            builder.push(path, codec, &stat, data);
        }
        let bytes = builder.finish();
        let parsed = parse_partition(&bytes).unwrap();
        prop_assert_eq!(parsed.len(), entries.len());
        for (e, (path, data)) in parsed.iter().zip(&entries) {
            prop_assert_eq!(&e.path, path);
            prop_assert_eq!(&e.data, data);
            prop_assert_eq!(e.stat.size as usize, data.len());
        }
    }

    #[test]
    fn pack_parse_never_panics_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = parse_partition(&garbage);
    }

    #[test]
    fn pack_parse_never_panics_on_truncation(
        entries in proptest::collection::vec(entry_strategy(), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let codec = CodecId::new(CodecFamily::Store, 0);
        let mut builder = PartitionBuilder::new();
        for (i, (path, data)) in entries.iter().enumerate() {
            builder.push(path, codec, &FileStat::regular(i as u64, data.len() as u64), data);
        }
        let bytes = builder.finish();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = parse_partition(&bytes[..cut]);
    }

    #[test]
    fn meta_merge_is_idempotent_and_complete(entries in proptest::collection::vec(entry_strategy(), 0..25)) {
        let mut a = MetaTable::new();
        for (i, (path, data)) in entries.iter().enumerate() {
            a.insert(path, MetaEntry {
                stat: FileStat::regular(i as u64, data.len() as u64),
                codec: CodecId::new(CodecFamily::Lz4Hc, 9),
            });
        }
        let encoded = a.encode();
        let mut b = MetaTable::new();
        b.merge_encoded(&encoded).unwrap();
        // Merging the same buffer again must not change anything.
        b.merge_encoded(&encoded).unwrap();
        prop_assert_eq!(b.file_count(), a.file_count());
        for (path, _) in &entries {
            prop_assert_eq!(b.stat(path).map(|s| s.size), a.stat(path).map(|s| s.size));
        }
    }

    #[test]
    fn meta_readdir_covers_every_file(raw in proptest::collection::vec(entry_strategy(), 1..25)) {
        let entries = dedup_namespace(raw);
        let mut t = MetaTable::new();
        for (path, _) in &entries {
            t.insert(path, MetaEntry {
                stat: FileStat::regular(1, 1),
                codec: CodecId::new(CodecFamily::Store, 0),
            });
        }
        // Walk the directory index from the root: every inserted file must
        // be reachable, and stat() must classify dirs/files correctly.
        let mut reachable = std::collections::HashSet::new();
        let mut stack = vec![String::new()];
        while let Some(dir) = stack.pop() {
            for name in t.readdir(&dir).unwrap_or_default() {
                let full = if dir.is_empty() { name } else { format!("{dir}/{name}") };
                let st = t.stat(&full).expect("listed entries must stat");
                if st.is_dir() {
                    stack.push(full);
                } else {
                    reachable.insert(full);
                }
            }
        }
        for (path, _) in &entries {
            prop_assert!(reachable.contains(path), "unreachable: {path}");
        }
    }

    #[test]
    fn meta_merge_never_panics_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let mut t = MetaTable::new();
        let _ = t.merge_encoded(&garbage);
    }
}
