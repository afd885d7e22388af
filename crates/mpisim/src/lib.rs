//! # mpi-sim
//!
//! An in-process, thread-per-rank MPI-like runtime.
//!
//! FanStore is launched with `mpiexec` — one process per node — and uses
//! MPI for four things (paper §V-D): metadata allgather, ring transfer of
//! extra partitions, remote file retrieval (send/recv), and write-metadata
//! forwarding. This crate reproduces that communication model on one
//! machine: [`launch`] spawns one OS thread per simulated rank, and each
//! rank gets a set of [`Channel`]s (independent tag/ordering domains, like
//! MPI communicators) carrying length-delimited byte payloads.
//!
//! Point-to-point: [`Channel::send`] / [`Channel::recv_match`] with
//! source/tag matching and out-of-order buffering, plus an [`Channel::rpc`]
//! convenience for request/reply against a daemon loop.
//! Collectives: [`Channel::barrier`] and [`Channel::allgather`],
//! implemented over point-to-point with per-channel generation counters,
//! so they follow the MPI rule: every rank calls the same collectives in
//! the same order on a given channel.
//!
//! Fault injection: [`launch_with_faults`] compiles a seeded
//! [`fault::FaultPlan`] into a [`fault::FaultInjector`] shared by every
//! endpoint, so chaos tests can kill ranks, drop, delay, or corrupt
//! messages deterministically. [`Channel::rpc_timeout`] /
//! [`RemoteSender::rpc_timeout`] bound how long a requester waits on a
//! daemon that will never answer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};

pub mod fault;

pub use fault::{FaultInjector, FaultPlan, RankKill};

/// Message tag. User tags must stay below [`COLLECTIVE_TAG_BASE`].
pub type Tag = u64;

/// Tags at or above this value are reserved for collective operations.
pub const COLLECTIVE_TAG_BASE: Tag = 1 << 60;

/// A point-to-point message.
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Request id carried for request-scoped tracing (0 = not part of a
    /// traced request). Set through [`Channel::rpc_with_id`]; the serving
    /// side stamps it onto the spans it records.
    pub request_id: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Reply conduit set by [`Channel::rpc`]; a daemon answers with
    /// [`Message::reply`].
    reply: Option<Sender<Vec<u8>>>,
}

impl Message {
    /// Answer an rpc message. Returns `false` if the message was not an
    /// rpc or the requester has gone away.
    pub fn reply(&self, payload: Vec<u8>) -> bool {
        match &self.reply {
            Some(tx) => tx.send(payload).is_ok(),
            None => false,
        }
    }

    /// Whether this message expects a reply.
    pub fn wants_reply(&self) -> bool {
        self.reply.is_some()
    }
}

/// Errors from communication calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The destination rank's channel endpoint has been dropped.
    Disconnected,
    /// Rank index out of range.
    InvalidRank(usize),
    /// An rpc deadline elapsed before the reply arrived (dead or
    /// unreachable daemon, or a reply lost in flight).
    Timeout,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Disconnected => write!(f, "peer channel disconnected"),
            CommError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            CommError::Timeout => write!(f, "rpc deadline elapsed"),
        }
    }
}

impl std::error::Error for CommError {}

/// Traffic counters for one channel endpoint, shared with observers.
#[derive(Debug, Default)]
pub struct TrafficStats {
    /// Bytes sent from this endpoint.
    pub bytes_sent: AtomicU64,
    /// Bytes received at this endpoint.
    pub bytes_received: AtomicU64,
    /// Messages sent.
    pub msgs_sent: AtomicU64,
}

/// One rank's endpoint on one communicator channel.
pub struct Channel {
    /// The sending half — rank, peers, traffic counters, fault hooks.
    /// `send` and the `rpc*` calls are its; [`Channel::remote`] clones it.
    tx: RemoteSender,
    receiver: Receiver<Message>,
    /// Messages received but not yet matched by `recv_match`.
    pending: VecDeque<Message>,
    /// Collective generation counter (advances identically on all ranks).
    generation: u64,
}

impl Channel {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.tx.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.tx.size()
    }

    /// Left neighbour on the virtual ring (used for partition replication).
    pub fn ring_left(&self) -> usize {
        (self.rank() + self.size() - 1) % self.size()
    }

    /// Right neighbour on the virtual ring.
    pub fn ring_right(&self) -> usize {
        (self.rank() + 1) % self.size()
    }

    /// Shared traffic counters for this endpoint.
    pub fn stats(&self) -> Arc<TrafficStats> {
        self.tx.stats()
    }

    /// Send `payload` to `dest` with `tag`.
    pub fn send(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<(), CommError> {
        self.tx.send(dest, tag, payload)
    }

    /// Blocking receive of the next message in arrival order (pending
    /// buffer first).
    pub fn recv(&mut self) -> Result<Message, CommError> {
        if let Some(m) = self.pending.pop_front() {
            return Ok(m);
        }
        let m = self.receiver.recv().map_err(|_| CommError::Disconnected)?;
        self.tx.stats.bytes_received.fetch_add(m.payload.len() as u64, Ordering::Relaxed);
        Ok(m)
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<Message> {
        if let Some(m) = self.pending.pop_front() {
            return Some(m);
        }
        match self.receiver.try_recv() {
            Ok(m) => {
                self.tx.stats.bytes_received.fetch_add(m.payload.len() as u64, Ordering::Relaxed);
                Some(m)
            }
            Err(_) => None,
        }
    }

    /// Blocking receive of the first message matching `src` and/or `tag`
    /// (like `MPI_Recv` with `MPI_ANY_SOURCE`/`MPI_ANY_TAG` wildcards).
    /// Non-matching messages are buffered for later receives.
    pub fn recv_match(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<Message, CommError> {
        let matches =
            |m: &Message| src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t);
        if let Some(idx) = self.pending.iter().position(matches) {
            return Ok(self.pending.remove(idx).expect("index valid"));
        }
        loop {
            let m = self.receiver.recv().map_err(|_| CommError::Disconnected)?;
            self.tx.stats.bytes_received.fetch_add(m.payload.len() as u64, Ordering::Relaxed);
            if matches(&m) {
                return Ok(m);
            }
            self.pending.push_back(m);
        }
    }

    /// Request/reply against a daemon loop on `dest`: sends `payload` and
    /// blocks for the answer. Returns [`CommError::Disconnected`] if the
    /// daemon drops the request without answering; blocks forever if the
    /// daemon never consumes it — use [`Channel::rpc_timeout`] when the
    /// peer may be dead.
    pub fn rpc(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<Vec<u8>, CommError> {
        self.tx.rpc(dest, tag, payload)
    }

    /// [`Channel::rpc`] with a deadline: fails with [`CommError::Timeout`]
    /// if no reply arrives within `timeout`, never blocking past it.
    pub fn rpc_timeout(
        &self,
        dest: usize,
        tag: Tag,
        payload: Vec<u8>,
        timeout: Duration,
    ) -> Result<Vec<u8>, CommError> {
        self.tx.rpc_timeout(dest, tag, payload, timeout)
    }

    /// Fully-general rpc: an optional timeout, and the trace request id
    /// riding the envelope alongside the payload.
    pub fn rpc_with_id(
        &self,
        dest: usize,
        tag: Tag,
        payload: Vec<u8>,
        timeout: Option<Duration>,
        request_id: u64,
    ) -> Result<Vec<u8>, CommError> {
        self.tx.rpc_with_id(dest, tag, payload, timeout, request_id)
    }

    /// A cloneable send-only handle on this channel: lets other threads of
    /// the same rank (e.g. training I/O threads) send and rpc to remote
    /// daemons while the daemon thread owns the receiving endpoint.
    pub fn remote(&self) -> RemoteSender {
        self.tx.clone()
    }

    // --- Collectives -----------------------------------------------------
    //
    // All ranks must call the same collectives in the same order on a given
    // channel; the per-channel generation counter keeps rounds separate.

    fn next_collective_tag(&mut self) -> Tag {
        self.generation += 1;
        COLLECTIVE_TAG_BASE + self.generation
    }

    /// Gather every rank's `local` buffer onto every rank (`MPI_Allgather`
    /// with variable lengths). Returns `size` buffers, indexed by rank.
    pub fn allgather(&mut self, local: Vec<u8>) -> Result<Vec<Vec<u8>>, CommError> {
        let tag = self.next_collective_tag();
        for dest in 0..self.size() {
            if dest != self.rank() {
                self.send(dest, tag, local.clone())?;
            }
        }
        let mut results: Vec<Option<Vec<u8>>> = (0..self.size()).map(|_| None).collect();
        results[self.rank()] = Some(local);
        for _ in 0..self.size() - 1 {
            let m = self.recv_match(None, Some(tag))?;
            results[m.src] = Some(m.payload);
        }
        Ok(results.into_iter().map(|r| r.expect("all ranks reported")).collect())
    }

    /// Synchronise all ranks.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.allgather(Vec::new()).map(|_| ())
    }
}

/// Send-only endpoint on a channel, cloneable across threads of one rank.
#[derive(Clone)]
pub struct RemoteSender {
    rank: usize,
    /// Index of this channel within the launch (used by fault scoping).
    channel_index: usize,
    senders: Vec<Sender<Message>>,
    stats: Arc<TrafficStats>,
    /// Fault injector shared across the launch; `None` in fault-free runs
    /// so the hooks cost a single branch.
    injector: Option<Arc<FaultInjector>>,
}

impl RemoteSender {
    /// Source rank of messages sent through this handle.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks reachable.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Shared traffic counters for the channel this handle sends on.
    pub fn stats(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.stats)
    }

    /// Count one message, run the send-side faults over it and enqueue it
    /// at `dest`. `Ok(false)` when it was blackholed or dropped in flight:
    /// a dead NIC, not an error — nothing arrives, and `reply` is dropped
    /// with it.
    fn post(
        &self,
        dest: usize,
        tag: Tag,
        mut payload: Vec<u8>,
        request_id: u64,
        reply: Option<Sender<Vec<u8>>>,
    ) -> Result<bool, CommError> {
        let tx = self.senders.get(dest).ok_or(CommError::InvalidRank(dest))?;
        self.stats.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        if let Some(inj) = &self.injector {
            let verdict = inj.on_send(self.channel_index, self.rank, dest, tag, &mut payload);
            if let Some(delay) = verdict.delay {
                std::thread::sleep(delay);
            }
            if !verdict.deliver {
                return Ok(false);
            }
        }
        tx.send(Message { src: self.rank, tag, request_id, payload, reply })
            .map_err(|_| CommError::Disconnected)?;
        Ok(true)
    }

    /// Send `payload` to `dest` with `tag` (no reply expected).
    pub fn send(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<(), CommError> {
        self.post(dest, tag, payload, 0, None).map(|_| ())
    }

    /// Request/reply against the daemon loop that owns `dest`'s receiving
    /// endpoint on this channel. Blocks forever if the daemon never
    /// consumes the request — use [`RemoteSender::rpc_timeout`] when the
    /// peer may be dead.
    pub fn rpc(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<Vec<u8>, CommError> {
        self.rpc_with_id(dest, tag, payload, None, 0)
    }

    /// [`RemoteSender::rpc`] with a deadline: fails with
    /// [`CommError::Timeout`] if no reply arrives within `timeout`.
    pub fn rpc_timeout(
        &self,
        dest: usize,
        tag: Tag,
        payload: Vec<u8>,
        timeout: Duration,
    ) -> Result<Vec<u8>, CommError> {
        self.rpc_with_id(dest, tag, payload, Some(timeout), 0)
    }

    /// Fully-general rpc: an optional timeout, and the trace request id
    /// riding the envelope alongside the payload (0 = untraced). The one
    /// request/reply body behind every `rpc*` call on this handle and on
    /// [`Channel`].
    pub fn rpc_with_id(
        &self,
        dest: usize,
        tag: Tag,
        payload: Vec<u8>,
        timeout: Option<Duration>,
        request_id: u64,
    ) -> Result<Vec<u8>, CommError> {
        let (rtx, rrx) = unbounded();
        let deadline = timeout.map(|t| Instant::now() + t);
        // A faulted request never reaches the daemon, and `post` has
        // dropped the reply conduit with it, so the recv below observes a
        // disconnect at once — the fast-forwarded equivalent of waiting
        // out the deadline on a dead peer. (A conduit kept alive in this
        // frame would make the recv block for the full deadline, or
        // forever without one.)
        self.post(dest, tag, payload, request_id, Some(rtx))?;
        let mut answer = match deadline {
            None => rrx.recv().map_err(|_| CommError::Disconnected)?,
            Some(deadline) => rrx.recv_deadline(deadline).map_err(|e| match e {
                RecvTimeoutError::Timeout => CommError::Timeout,
                RecvTimeoutError::Disconnected => CommError::Disconnected,
            })?,
        };
        if let Some(inj) = &self.injector {
            // Reply-side faults are decided at the requester, on the
            // (server -> client) link stream. A lost reply surfaces as the
            // deadline firing.
            if !inj.on_reply(self.channel_index, dest, self.rank, &mut answer) {
                return Err(CommError::Timeout);
            }
        }
        self.stats.bytes_received.fetch_add(answer.len() as u64, Ordering::Relaxed);
        Ok(answer)
    }
}

/// Per-rank context handed to the closure in [`launch`]: the rank id and
/// its channel endpoints.
pub struct NodeCtx {
    /// This node's rank.
    pub rank: usize,
    /// Total ranks.
    pub size: usize,
    channels: Vec<Option<Channel>>,
    injector: Option<Arc<FaultInjector>>,
}

impl NodeCtx {
    /// Take ownership of channel `idx`. Each channel can be taken once —
    /// typically channel 0 for collectives/control and channel 1 for the
    /// daemon service loop.
    pub fn take_channel(&mut self, idx: usize) -> Channel {
        self.channels
            .get_mut(idx)
            .unwrap_or_else(|| panic!("channel index {idx} out of range"))
            .take()
            .unwrap_or_else(|| panic!("channel {idx} already taken"))
    }

    /// Number of channels created at launch.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The launch-wide fault injector, if this run was started with
    /// [`launch_with_faults`].
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }
}

/// Spawn `size` ranks, each running `f` on its own OS thread with
/// `nchannels` independent channels, and join them. Results are returned
/// in rank order. A panic in any rank propagates.
pub fn launch<T, F>(size: usize, nchannels: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(NodeCtx) -> T + Send + Sync,
{
    launch_impl(size, nchannels, None, f)
}

/// [`launch`] under a seeded fault schedule: the `plan` is compiled into
/// one [`FaultInjector`] shared by every endpoint. Returns the rank
/// results plus the injector, whose [`fault::FaultStats`] record what was
/// actually injected.
pub fn launch_with_faults<T, F>(
    size: usize,
    nchannels: usize,
    plan: FaultPlan,
    f: F,
) -> (Vec<T>, Arc<FaultInjector>)
where
    T: Send,
    F: Fn(NodeCtx) -> T + Send + Sync,
{
    let injector = Arc::new(FaultInjector::new(plan, size, nchannels));
    let results = launch_impl(size, nchannels, Some(Arc::clone(&injector)), f);
    (results, injector)
}

fn launch_impl<T, F>(
    size: usize,
    nchannels: usize,
    injector: Option<Arc<FaultInjector>>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(NodeCtx) -> T + Send + Sync,
{
    assert!(size > 0, "need at least one rank");
    assert!(nchannels > 0, "need at least one channel");

    // Build the full mesh: per channel, per rank, one receiver and senders
    // to every rank.
    let mut all_senders: Vec<Vec<Sender<Message>>> = Vec::with_capacity(nchannels);
    let mut all_receivers: Vec<Vec<Receiver<Message>>> = Vec::with_capacity(nchannels);
    for _ in 0..nchannels {
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        all_senders.push(senders);
        all_receivers.push(receivers);
    }

    let mut contexts: Vec<NodeCtx> = Vec::with_capacity(size);
    // `rank` is both an index into the mesh and the channel's identity.
    #[allow(clippy::needless_range_loop)]
    for rank in 0..size {
        let mut channels = Vec::with_capacity(nchannels);
        for ch in 0..nchannels {
            channels.push(Some(Channel {
                tx: RemoteSender {
                    rank,
                    channel_index: ch,
                    senders: all_senders[ch].clone(),
                    stats: Arc::new(TrafficStats::default()),
                    injector: injector.clone(),
                },
                receiver: all_receivers[ch][rank].clone(),
                pending: VecDeque::new(),
                generation: 0,
            }));
        }
        contexts.push(NodeCtx { rank, size, channels, injector: injector.clone() });
    }
    // Drop the original mesh handles so channels close when ranks finish.
    drop(all_senders);
    drop(all_receivers);

    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = contexts.into_iter().map(|ctx| scope.spawn(move || f(ctx))).collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_roundtrip() {
        let results = launch(2, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            if ctx.rank == 0 {
                ch.send(1, 7, b"hello".to_vec()).unwrap();
                ch.recv_match(Some(1), Some(8)).unwrap().payload
            } else {
                let m = ch.recv_match(Some(0), Some(7)).unwrap();
                assert_eq!(m.payload, b"hello");
                ch.send(0, 8, b"world".to_vec()).unwrap();
                b"done".to_vec()
            }
        });
        assert_eq!(results[0], b"world");
        assert_eq!(results[1], b"done");
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let results = launch(2, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            if ctx.rank == 0 {
                ch.send(1, 1, b"first-tag".to_vec()).unwrap();
                ch.send(1, 2, b"second-tag".to_vec()).unwrap();
                0
            } else {
                // Receive tag 2 first even though tag 1 arrives first.
                let m2 = ch.recv_match(None, Some(2)).unwrap();
                let m1 = ch.recv_match(None, Some(1)).unwrap();
                assert_eq!(m2.payload, b"second-tag");
                assert_eq!(m1.payload, b"first-tag");
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn recv_match_buffers_interleaved_tags_from_many_sources() {
        // Two senders interleave two tag streams each toward rank 2; the
        // receiver drains them in an order orthogonal to arrival. Per
        // (src, tag) stream FIFO order must survive the buffering.
        let results = launch(3, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            match ctx.rank {
                0 => {
                    for i in 0..4u8 {
                        ch.send(2, 10 + Tag::from(i % 2), vec![i]).unwrap();
                    }
                    0
                }
                1 => {
                    for i in 0..4u8 {
                        ch.send(2, 20 + Tag::from(i % 2), vec![0x10 + i]).unwrap();
                    }
                    0
                }
                _ => {
                    let order: [(usize, Tag); 8] =
                        [(1, 21), (1, 21), (0, 11), (0, 11), (1, 20), (0, 10), (0, 10), (1, 20)];
                    let mut streams: std::collections::HashMap<(usize, Tag), Vec<u8>> =
                        std::collections::HashMap::new();
                    for (src, tag) in order {
                        let m = ch.recv_match(Some(src), Some(tag)).unwrap();
                        assert_eq!((m.src, m.tag), (src, tag));
                        streams.entry((src, tag)).or_default().push(m.payload[0]);
                    }
                    assert_eq!(streams[&(0, 10)], vec![0, 2]);
                    assert_eq!(streams[&(0, 11)], vec![1, 3]);
                    assert_eq!(streams[&(1, 20)], vec![0x10, 0x12]);
                    assert_eq!(streams[&(1, 21)], vec![0x11, 0x13]);
                    1
                }
            }
        });
        assert_eq!(results, vec![0, 0, 1]);
    }

    #[test]
    fn allgather_collects_all_ranks() {
        let results = launch(5, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            let local = vec![ctx.rank as u8; ctx.rank + 1];
            ch.allgather(local).unwrap()
        });
        for gathered in &results {
            assert_eq!(gathered.len(), 5);
            for (rank, buf) in gathered.iter().enumerate() {
                assert_eq!(buf, &vec![rank as u8; rank + 1]);
            }
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let results = launch(4, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            let mut sums = Vec::new();
            for round in 0..10u64 {
                let g = ch.allgather(vec![(ctx.rank as u64 + round) as u8]).unwrap();
                sums.push(g.iter().map(|b| b[0] as u64).sum::<u64>());
            }
            sums
        });
        for sums in results {
            for (round, s) in sums.iter().enumerate() {
                assert_eq!(*s, 6 + 4 * round as u64);
            }
        }
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        launch(8, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            counter.fetch_add(1, Ordering::SeqCst);
            ch.barrier().unwrap();
            // After the barrier, every rank must have incremented.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn rpc_against_daemon_loop() {
        let results = launch(3, 2, |mut ctx| {
            let service = ctx.take_channel(1);
            if ctx.rank == 0 {
                let mut service = service;
                let mut served = 0usize;
                while served < 2 {
                    let m = service.recv().unwrap();
                    assert!(m.wants_reply());
                    let mut answer = m.payload.clone();
                    answer.reverse();
                    assert!(m.reply(answer));
                    served += 1;
                }
                Vec::new()
            } else {
                service.rpc(0, 1, vec![ctx.rank as u8, 10, 20]).unwrap()
            }
        });
        assert_eq!(results[1], vec![20, 10, 1]);
        assert_eq!(results[2], vec![20, 10, 2]);
    }

    #[test]
    fn rpc_request_id_rides_the_envelope() {
        let results = launch(2, 1, |mut ctx| {
            if ctx.rank == 0 {
                let mut service = ctx.take_channel(0);
                let m = service.recv().unwrap();
                let id = m.request_id;
                m.reply(Vec::new());
                // Plain sends carry no request id.
                let plain = service.recv().unwrap();
                (id, plain.request_id)
            } else {
                let ch = ctx.take_channel(0);
                ch.rpc_with_id(0, 1, vec![1], None, 0xBEEF).unwrap();
                ch.send(0, 2, vec![2]).unwrap();
                (0, 0)
            }
        });
        assert_eq!(results[0], (0xBEEF, 0));
    }

    #[test]
    fn ring_neighbours() {
        launch(4, 1, |mut ctx| {
            let ch = ctx.take_channel(0);
            assert_eq!(ch.ring_right(), (ctx.rank + 1) % 4);
            assert_eq!(ch.ring_left(), (ctx.rank + 3) % 4);
        });
    }

    #[test]
    fn traffic_stats_count_bytes() {
        let results = launch(2, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            if ctx.rank == 0 {
                ch.send(1, 0, vec![0u8; 1000]).unwrap();
                ch.stats().bytes_sent.load(Ordering::Relaxed)
            } else {
                let m = ch.recv().unwrap();
                assert_eq!(m.payload.len(), 1000);
                ch.stats().bytes_received.load(Ordering::Relaxed)
            }
        });
        assert_eq!(results, vec![1000, 1000]);
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let results = launch(1, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            ch.barrier().unwrap();
            let g = ch.allgather(vec![42]).unwrap();
            let r = ch.allgather(2.5f64.to_le_bytes().to_vec()).unwrap();
            (g, r)
        });
        assert_eq!(results[0].0, vec![vec![42]]);
        assert_eq!(results[0].1, vec![2.5f64.to_le_bytes().to_vec()]);
    }

    #[test]
    fn invalid_rank_rejected() {
        launch(2, 1, |mut ctx| {
            let ch = ctx.take_channel(0);
            assert_eq!(ch.send(5, 0, Vec::new()), Err(CommError::InvalidRank(5)));
            // Keep both ranks alive until the assertion runs everywhere.
        });
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn channel_double_take_panics() {
        launch(1, 1, |mut ctx| {
            let _a = ctx.take_channel(0);
            let _b = ctx.take_channel(0);
        });
    }

    #[test]
    fn remote_sender_rpc_from_sibling_thread() {
        let results = launch(2, 1, |mut ctx| {
            let ch = ctx.take_channel(0);
            if ctx.rank == 0 {
                let mut service = ch;
                let m = service.recv().unwrap();
                assert_eq!(m.src, 1);
                m.reply(vec![m.payload[0] * 2]);
                0u8
            } else {
                let remote = ch.remote();
                // rpc from a spawned sibling thread, as a training I/O
                // thread would.
                std::thread::scope(|s| {
                    s.spawn(move || remote.rpc(0, 5, vec![21]).unwrap()[0]).join().unwrap()
                })
            }
        });
        assert_eq!(results[1], 42);
    }

    #[test]
    fn many_ranks_scale() {
        // 64 ranks exchanging metadata-sized buffers, like the paper's
        // metadata allgather at scale.
        let results = launch(64, 1, |mut ctx| {
            let mut ch = ctx.take_channel(0);
            let g = ch.allgather(vec![ctx.rank as u8]).unwrap();
            g.len()
        });
        assert!(results.iter().all(|&n| n == 64));
    }

    #[test]
    fn rpc_dropped_reply_returns_disconnected() {
        // Regression: a daemon that consumes an rpc request but drops it
        // without answering must surface as Disconnected, not hang.
        let results = launch(2, 1, |mut ctx| {
            if ctx.rank == 0 {
                let mut service = ctx.take_channel(0);
                let m = service.recv().unwrap();
                assert!(m.wants_reply());
                drop(m); // never replies
                Ok(Vec::new())
            } else {
                ctx.take_channel(0).rpc(0, 1, vec![9])
            }
        });
        assert_eq!(results[1], Err(CommError::Disconnected));
    }

    #[test]
    fn rpc_timeout_never_blocks_past_deadline() {
        // Rank 0 never services its channel: without a deadline this rpc
        // would block forever (the queued request keeps the reply conduit
        // alive). The deadline must fire, promptly.
        let results = launch(2, 1, |mut ctx| {
            let ch = ctx.take_channel(0);
            if ctx.rank == 0 {
                // Wait for the peer's verdict instead of servicing.
                let mut ch = ch;
                ch.recv_match(Some(1), Some(99)).unwrap();
                Ok(Vec::new())
            } else {
                let started = std::time::Instant::now();
                let r = ch.rpc_timeout(0, 1, vec![1], Duration::from_millis(50));
                assert!(started.elapsed() < Duration::from_secs(5), "deadline must bound the wait");
                ch.send(0, 99, Vec::new()).unwrap();
                r
            }
        });
        assert_eq!(results[1], Err(CommError::Timeout));
    }

    #[test]
    fn remote_sender_rpc_timeout_on_dead_peer() {
        let results = launch(2, 2, |mut ctx| {
            let control = ctx.take_channel(0);
            let service = ctx.take_channel(1);
            if ctx.rank == 0 {
                // Daemon never runs; unblock the peer's exit afterwards.
                let mut control = control;
                control.recv_match(Some(1), Some(7)).unwrap();
                drop(service);
                Ok(Vec::new())
            } else {
                let remote = service.remote();
                let r = remote.rpc_timeout(0, 1, vec![5], Duration::from_millis(20));
                control.send(0, 7, Vec::new()).unwrap();
                r
            }
        });
        assert_eq!(results[1], Err(CommError::Timeout));
    }

    #[test]
    fn killed_rank_blackholes_service_but_control_survives() {
        let plan = FaultPlan::new(11).on_channels(&[1]).kill(0, 0);
        let (results, injector) = launch_with_faults(2, 2, plan, |mut ctx| {
            let mut control = ctx.take_channel(0);
            let service = ctx.take_channel(1);
            let out = if ctx.rank == 1 {
                let started = std::time::Instant::now();
                let r = service.rpc_timeout(0, 1, vec![1], Duration::from_secs(30));
                // Blackholed requests fail fast (dropped conduit), not by
                // waiting out the deadline.
                assert!(started.elapsed() < Duration::from_secs(5));
                r
            } else {
                drop(service); // rank 0's daemon is dead
                Ok(Vec::new())
            };
            // The control channel is outside the fault scope.
            control.barrier().unwrap();
            out
        });
        assert_eq!(results[1], Err(CommError::Disconnected));
        assert!(injector.is_dead(0));
        assert!(injector.stats.blackholed.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn same_seed_same_fault_schedule_across_launches() {
        let run = || {
            // Faults scoped to the lossy channel 1; channel 0 carries the
            // (reliable) "all sent" marker.
            let plan = FaultPlan::new(77).on_channels(&[1]).drop_prob(0.4);
            let (results, injector) = launch_with_faults(2, 2, plan, |mut ctx| {
                let mut control = ctx.take_channel(0);
                let mut lossy = ctx.take_channel(1);
                if ctx.rank == 0 {
                    for i in 0..200u64 {
                        lossy.send(1, i, vec![0u8; 16]).unwrap();
                    }
                    control.send(1, 0, Vec::new()).unwrap();
                    0
                } else {
                    // All surviving messages were enqueued before the
                    // marker was sent, so they are all drainable now.
                    control.recv_match(Some(0), Some(0)).unwrap();
                    let mut seen = 0usize;
                    while lossy.try_recv().is_some() {
                        seen += 1;
                    }
                    seen
                }
            });
            (results[1], injector.stats.dropped.load(Ordering::Relaxed))
        };
        let (seen_a, dropped_a) = run();
        let (seen_b, dropped_b) = run();
        assert_eq!(seen_a, seen_b, "deterministic delivery schedule");
        assert_eq!(dropped_a, dropped_b, "deterministic drop count");
        assert!(dropped_a > 0, "p=0.4 over 201 sends must drop something");
    }
}
