//! Stress and property tests for the MPI-like runtime: collective
//! correctness under arbitrary payloads and rank counts, interleaved
//! point-to-point traffic, and daemon-style request storms.

use mpi_sim::{launch, CommError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allgather_arbitrary_payloads(
        size in 1usize..9,
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 9),
    ) {
        let payloads = std::sync::Arc::new(payloads);
        let results = launch(size, 1, {
            let payloads = std::sync::Arc::clone(&payloads);
            move |mut ctx| {
                let mut ch = ctx.take_channel(0);
                ch.allgather(payloads[ctx.rank].clone()).unwrap()
            }
        });
        for gathered in results {
            prop_assert_eq!(gathered.len(), size);
            for (rank, buf) in gathered.iter().enumerate() {
                prop_assert_eq!(buf, &payloads[rank]);
            }
        }
    }
}

#[test]
fn interleaved_pt2pt_and_collectives() {
    // Every rank sends a unique message to every other rank while also
    // participating in collectives — the FanStore steady state (remote
    // GETs interleaved with barriers).
    let n = 6;
    let results = launch(n, 2, |mut ctx| {
        let mut coll = ctx.take_channel(0);
        let mut p2p = ctx.take_channel(1);
        for dest in 0..n {
            if dest != ctx.rank {
                p2p.send(dest, ctx.rank as u64, vec![ctx.rank as u8; dest + 1]).unwrap();
            }
        }
        coll.barrier().unwrap();
        let mut received = 0usize;
        for src in 0..n {
            if src != ctx.rank {
                let m = p2p.recv_match(Some(src), Some(src as u64)).unwrap();
                assert_eq!(m.payload, vec![src as u8; ctx.rank + 1]);
                received += 1;
            }
        }
        coll.barrier().unwrap();
        received
    });
    assert!(results.iter().all(|&r| r == n - 1));
}

#[test]
fn daemon_request_storm() {
    // One daemon rank, many clients hammering it with rpcs concurrently
    // from sibling threads — the §II-B concurrent-access pattern.
    let clients = 5;
    let per_client_threads = 3;
    let requests_per_thread = 40;
    let results = launch(clients + 1, 1, |mut ctx| {
        let ch = ctx.take_channel(0);
        if ctx.rank == 0 {
            let mut service = ch;
            let expected = clients * per_client_threads * requests_per_thread;
            for _ in 0..expected {
                let m = service.recv().unwrap();
                let mut reply = m.payload.clone();
                reply.reverse();
                assert!(m.reply(reply));
            }
            expected
        } else {
            let remote = ch.remote();
            std::thread::scope(|s| {
                let mut handles = Vec::new();
                for t in 0..per_client_threads {
                    let remote = remote.clone();
                    handles.push(s.spawn(move || {
                        for i in 0..requests_per_thread {
                            let payload = vec![t as u8, i as u8, 7];
                            let reply = remote.rpc(0, 1, payload.clone()).unwrap();
                            assert_eq!(reply, vec![7, i as u8, t as u8]);
                        }
                    }));
                }
                for h in handles {
                    h.join().unwrap();
                }
            });
            0
        }
    });
    assert_eq!(results[0], clients * per_client_threads * requests_per_thread);
}

#[test]
fn disconnect_surfaces_as_error_not_hang() {
    // A client rpc-ing a rank that exits immediately must error out, not
    // deadlock.
    let results = launch(2, 2, |mut ctx| {
        let _control = ctx.take_channel(0);
        let service = ctx.take_channel(1);
        if ctx.rank == 0 {
            // Exit immediately: drop the service endpoint.
            drop(service);
            true
        } else {
            // Give rank 0 a moment to drop, then rpc it.
            std::thread::sleep(std::time::Duration::from_millis(50));
            matches!(service.remote().rpc(0, 1, vec![1]), Err(CommError::Disconnected))
        }
    });
    assert_eq!(results, vec![true, true]);
}
