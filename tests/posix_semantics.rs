//! Integration tests for the POSIX-style interface semantics (paper
//! §IV-A): the ten-call surface, multi-read/single-write, and the
//! directory operations, across a real multi-node cluster.

use fanstore_repro::store::client::Whence;
use fanstore_repro::store::cluster::{ClusterConfig, FanStore};
use fanstore_repro::store::prep::{prepare, PrepConfig};
use fanstore_repro::store::FsError;

fn cluster_with(files: Vec<(String, Vec<u8>)>, nodes: usize) -> Vec<Vec<u8>> {
    prepare(files, &PrepConfig { partitions: nodes, ..Default::default() }).partitions
}

#[test]
fn read_lseek_semantics() {
    let content: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
    let parts = cluster_with(vec![("d/f.bin".into(), content.clone())], 1);
    FanStore::run(ClusterConfig::default(), parts, |fs| {
        let fd = fs.open("d/f.bin").unwrap();

        // Sequential reads advance the offset.
        let mut buf = [0u8; 100];
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 100);
        assert_eq!(&buf[..], &content[..100]);
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 100);
        assert_eq!(&buf[..], &content[100..200]);

        // SEEK_SET / SEEK_CUR / SEEK_END.
        assert_eq!(fs.lseek(fd, 0, Whence::Set).unwrap(), 0);
        assert_eq!(fs.lseek(fd, 50, Whence::Cur).unwrap(), 50);
        assert_eq!(fs.lseek(fd, -8, Whence::End).unwrap(), 9992);
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 8, "short read at EOF");
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 0, "EOF reads return 0");

        // Seeking past EOF is legal; the next read returns 0.
        assert_eq!(fs.lseek(fd, 100, Whence::End).unwrap(), 10_100);
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 0);

        // Negative and overflowing targets are EINVAL, as POSIX `lseek`
        // answers, and leave the position where it was.
        assert_eq!(fs.lseek(fd, 200, Whence::Set).unwrap(), 200);
        for (offset, whence) in [
            (-1, Whence::Set),
            (-201, Whence::Cur),
            (i64::MIN, Whence::Cur),
            (i64::MAX, Whence::Cur),
            (i64::MAX, Whence::End),
        ] {
            let got = fs.lseek(fd, offset, whence);
            assert!(matches!(got, Err(FsError::BadRange(_))), "{offset} {whence:?}: {got:?}");
        }
        assert_eq!(fs.read(fd, &mut buf).unwrap(), 100);
        assert_eq!(&buf[..], &content[200..300], "a failed seek does not move the fd");

        fs.close(fd).unwrap();
        // Operations on a closed fd fail.
        assert!(matches!(fs.read(fd, &mut buf), Err(FsError::BadFd(_))));
        assert!(matches!(fs.close(fd), Err(FsError::BadFd(_))));
    });
}

#[test]
fn concurrent_readers_on_one_file() {
    let content = b"shared content".repeat(500);
    let parts = cluster_with(vec![("f".into(), content.clone())], 1);
    FanStore::run(ClusterConfig::default(), parts, |fs| {
        // The multi-read model: many descriptors on the same file, each
        // with an independent offset.
        let fds: Vec<i32> = (0..8).map(|_| fs.open("f").unwrap()).collect();
        let mut buf = [0u8; 64];
        for (i, &fd) in fds.iter().enumerate() {
            fs.lseek(fd, (i * 10) as i64, Whence::Set).unwrap();
            let n = fs.read(fd, &mut buf).unwrap();
            assert_eq!(&buf[..n], &content[i * 10..i * 10 + n]);
        }
        for fd in fds {
            fs.close(fd).unwrap();
        }
    });
}

#[test]
fn single_write_model_enforced() {
    let parts = cluster_with(vec![("in.bin".into(), vec![1u8; 100])], 1);
    FanStore::run(ClusterConfig::default(), parts, |fs| {
        // Write an output file once.
        let fd = fs.create("out/log.txt").unwrap();
        fs.write(fd, b"epoch 1 loss 0.5\n").unwrap();
        fs.write(fd, b"epoch 2 loss 0.4\n").unwrap();
        // Reading a write fd violates the model.
        let mut buf = [0u8; 4];
        assert!(matches!(fs.read(fd, &mut buf), Err(FsError::ReadOnly(_))));
        fs.close(fd).unwrap();

        // Once closed, the file is immutable: no re-create, no overwrite.
        assert!(matches!(fs.create("out/log.txt"), Err(FsError::AlreadyExists(_))));
        // Input files cannot be opened for writing either.
        assert!(matches!(fs.create("in.bin"), Err(FsError::AlreadyExists(_))));
        // Writing to a read fd fails.
        let rfd = fs.open("in.bin").unwrap();
        assert!(matches!(fs.write(rfd, b"x"), Err(FsError::ReadOnly(_))));
        fs.close(rfd).unwrap();

        // The written file is readable again locally with exact content.
        let back = fs.read_whole("out/log.txt").unwrap();
        assert_eq!(back, b"epoch 1 loss 0.5\nepoch 2 loss 0.4\n");
        // And visible through stat with the right size.
        assert_eq!(fs.stat("out/log.txt").unwrap().size, 34);
    });
}

#[test]
fn directory_operations() {
    let files = vec![
        ("data/a/x.bin".to_string(), vec![0u8; 64]),
        ("data/a/y.bin".to_string(), vec![0u8; 64]),
        ("data/b/z.bin".to_string(), vec![0u8; 64]),
    ];
    let parts = cluster_with(files, 2);
    FanStore::run(ClusterConfig { nodes: 2, ..Default::default() }, parts, |fs| {
        // stat on directories reports S_IFDIR.
        assert!(fs.stat("data").unwrap().is_dir());
        assert!(fs.stat("data/a").unwrap().is_dir());
        assert!(!fs.stat("data/a/x.bin").unwrap().is_dir());

        // opendir/readdir/closedir stream entries in sorted order.
        let mut stream = fs.opendir("data").unwrap();
        let mut names = Vec::new();
        while let Some(e) = stream.next_entry() {
            names.push(e.to_string());
        }
        fs.closedir(stream);
        assert_eq!(names, vec!["a", "b"]);

        let mut sub = fs.opendir("data/a").unwrap();
        assert_eq!(sub.next_entry(), Some("x.bin"));
        assert_eq!(sub.next_entry(), Some("y.bin"));
        assert_eq!(sub.next_entry(), None);

        // Missing paths error like ENOENT.
        assert!(matches!(fs.opendir("nope"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.open("data/a/missing.bin"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.stat("data/missing"), Err(FsError::NotFound(_))));
    });
}

#[test]
fn remote_files_equal_local_files() {
    // With 2 nodes and 2 partitions, each node holds half; both views
    // must be byte-identical for every file.
    let files: Vec<(String, Vec<u8>)> = (0..10)
        .map(|i| (format!("t/f{i}.bin"), format!("file {i} ").repeat(100).into_bytes()))
        .collect();
    let parts = cluster_with(files.clone(), 2);
    let digests = FanStore::run(ClusterConfig { nodes: 2, ..Default::default() }, parts, |fs| {
        files
            .iter()
            .map(|(p, _)| {
                let d = fs.read_whole(p).unwrap();
                fanstore_repro::compress::crc32::crc32(&d)
            })
            .collect::<Vec<u32>>()
    });
    assert_eq!(digests[0], digests[1]);
    for ((_, data), crc) in files.iter().zip(&digests[0]) {
        assert_eq!(fanstore_repro::compress::crc32::crc32(data), *crc);
    }
}

#[test]
fn stat_matches_read_length_everywhere() {
    let files: Vec<(String, Vec<u8>)> =
        (0..6).map(|i| (format!("s/f{i}"), vec![7u8; 100 + i * 37])).collect();
    let parts = cluster_with(files.clone(), 3);
    FanStore::run(ClusterConfig { nodes: 3, ..Default::default() }, parts, |fs| {
        for (p, d) in &files {
            let st = fs.stat(p).unwrap();
            assert_eq!(st.size as usize, d.len(), "{p}");
            assert_eq!(fs.read_whole(p).unwrap().len(), d.len());
            // blocks/blksize populated like a real stat.
            assert_eq!(st.blksize, 4096);
            assert_eq!(st.blocks, (d.len() as u64).div_ceil(512));
        }
    });
}
