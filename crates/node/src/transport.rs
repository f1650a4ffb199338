//! What a node's sockets are made of: its [`TransportConfig`], the
//! per-peer outbound queue and counters its home shard in the shared
//! event-driven network core ([`crate::netpool`]) keeps, and the
//! [`Inbound`] messages that shard hands the node.
//!
//! Topology: every node listens on one socket and dials one outbound
//! connection per peer. A pair of nodes is therefore joined by two
//! unidirectional TCP streams — each node writes only on connections it
//! dialed and reads only on connections it accepted — which keeps
//! connection ownership trivial (no simultaneous-dial deduplication) at the
//! cost of one extra socket per pair.
//!
//! Threading: none of it lives here. A [`NetPool`] owns every socket, and
//! the one shard a node attaches to, its *home*, owns all of the node's:
//! its listener, the connections it accepted and its link to every peer.
//! That shard also steps the node, so what the node sends goes straight
//! into the per-peer bounded outbound queues, with **drop-oldest**
//! backpressure (consensus tolerates message loss — the protocols re-sync
//! via certificates and the block fetcher — so dropping the stalest frame
//! beats unbounded buffering or blocking the shard) and a protected
//! drop-*new* class for sync responses. A node attaches to the pool its
//! config names ([`TransportConfig::pool`]) through its
//! [`NodeHandle`](crate::runtime::NodeHandle), which never shuts the pool
//! down; an in-process cluster hands one pool to every node, which is what
//! takes a 50-node localhost cluster from ~50·(n+2) threads to one pool of
//! at most eight.
//!
//! Every dialed connection opens with a [`moonshot_wire::Frame::Hello`] so
//! the accepting side learns who is talking before the first consensus
//! message. A lost outbound link is redialed on an exponential backoff
//! (100 ms doubling to 5 s), except that a hello from the peer while the
//! link is down resets the backoff and dials at once: a restarted peer
//! dials everyone on start, so its hellos are the first sign it is back.
//! The home shard alone decides a link's dials, so a peer has at most one
//! outbound link and its frames leave on one stream, in order.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use moonshot_consensus::PreVerified;
use moonshot_mempool::{DissemPlane, Mempool};
use moonshot_types::NodeId;

use crate::netpool::NetPool;
use crate::shape::ShapeMatrix;

/// Per-node batch-store budget of the plane a [`TransportConfig`] starts
/// with. The live window is a few pipeline depths of batches; the budget
/// only guards against garbage.
pub(crate) const DISSEM_STORE_BUDGET: usize = 64 << 20;

/// Outbound frames buffered per peer before drop-oldest kicks in.
const QUEUE_FRAMES: usize = 1024;
/// Outbound *bytes* buffered per peer before drop-oldest kicks in. A frame
/// can be megabytes, so a count-only bound is no bound at all; whichever
/// budget trips first evicts the oldest frames.
const QUEUE_BYTES: usize = 32 * 1024 * 1024;
/// Outbound bytes of protected (sync-response) frames buffered per peer
/// before **drop-new** kicks in. Protected frames — `BlockResponse` and
/// `BatchResponse` — are never evicted by drop-oldest backpressure:
/// dropping one would starve the exact node whose vote is blocked on it.
const PROTECTED_BYTES: usize = 32 * 1024 * 1024;

/// A message for a node's next step.
#[derive(Debug)]
pub struct Inbound {
    /// The sending node (from its hello preamble, or this node itself for
    /// the messages the node keeps for its own next step).
    pub from: NodeId,
    /// The consensus message, every signature in it already checked: by
    /// the home shard that read it, or trivially for the node's own
    /// messages to itself. Nothing reaches the node unverified.
    pub msg: PreVerified,
}

/// Transport configuration for one node.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// This node's id.
    pub node_id: NodeId,
    /// All peers (entries for `node_id` itself are ignored).
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// When set, the node's mempool and its base batch size in bytes:
    /// `SubmitTx` frames from client connections are admitted into the
    /// pool by the home shard as it reads them, and the node seals it into
    /// batches of that size. When `None` — a consensus-only node proposing
    /// other nodes' batches or empty blocks — submissions are ignored.
    pub mempool: Option<(Arc<Mempool>, usize)>,
    /// The node's dissemination plane: the home shard checks the digest of
    /// a `BatchPush`/`BatchResponse` frame and hands the batch to the node,
    /// which stores it, and answers `BatchRequest` frames from the store;
    /// the node pushes the batches it seals, proposes and gates votes
    /// through the same plane. A fresh one by default; a restarted node is
    /// handed the plane it had.
    pub dissem: Arc<DissemPlane>,
    /// Fault-injection knob (tests): skip this peer when the node
    /// broadcasts `BatchPush` frames, forcing its fetch path to cover.
    pub drop_batch_push_to: Option<NodeId>,
    /// The network core to attach to. Its owner shuts it down after the
    /// last node on it stops; an in-process cluster passes one pool to
    /// every node, so the whole cluster costs a constant number of
    /// threads.
    pub pool: Arc<NetPool>,
    /// Per-link latency/bandwidth shaping applied to this node's outbound
    /// connections (sender-side). `None` = unshaped.
    pub shape: Option<Arc<ShapeMatrix>>,
}

impl TransportConfig {
    /// A config for node `node_id` among `peers` on `pool`: no mempool, a
    /// fresh plane, unshaped.
    pub fn new(node_id: NodeId, peers: Vec<(NodeId, SocketAddr)>, pool: Arc<NetPool>) -> Self {
        TransportConfig {
            node_id,
            peers,
            mempool: None,
            dissem: DissemPlane::new(DISSEM_STORE_BUDGET),
            drop_batch_push_to: None,
            pool,
            shape: None,
        }
    }
}

/// Per-peer transport counters (atomics: written by the home shard, read
/// into the node's report when it stops).
#[derive(Debug, Default)]
pub struct PeerMetrics {
    /// Payload bytes written to this peer (frames included).
    pub bytes_out: AtomicU64,
    /// Frames written to this peer.
    pub frames_out: AtomicU64,
    /// Vectored writes to this peer that wrote at least one byte: frames
    /// out per write is how many frames one syscall carried.
    pub writes: AtomicU64,
    /// Bytes read from this peer.
    pub bytes_in: AtomicU64,
    /// Outbound frames discarded by drop-oldest backpressure or lost on a
    /// failed write.
    pub dropped_frames: AtomicU64,
    /// Protected (sync-response) frames refused because the protected byte
    /// budget was full. Protected frames use drop-*new*: the queued
    /// responses are older requests' answers and must not be evicted by a
    /// fresh one — the requester's retry re-asks for whatever was refused.
    pub protected_dropped: AtomicU64,
    /// Connections *re*-established after a previously working one failed.
    /// The initial dial — including retries while the remote listener is
    /// still binding at startup — never counts, so a clean run reports 0
    /// and any nonzero value is a real mid-run connection loss.
    pub reconnects: AtomicU64,
    /// Frames from this peer the decoder rejected (connection then dropped).
    pub decode_errors: AtomicU64,
    /// Messages from this peer dropped by signature verification on the
    /// shard that read them (bad signature or certificate).
    pub verify_failures: AtomicU64,
}

/// One peer's outbound frames, owned by the node's home shard.
pub(crate) struct OutboundQueue {
    queue: VecDeque<Arc<Vec<u8>>>,
    /// Running sum of queued frame lengths.
    bytes: usize,
    /// The protected class: sync-response frames (`BlockResponse`,
    /// `BatchResponse`). Served before `queue`, never evicted by
    /// drop-oldest — a full protected budget refuses the *new* frame
    /// instead (the requester's retry machinery re-asks).
    protected: VecDeque<Arc<Vec<u8>>>,
    /// Running sum of protected frame lengths.
    protected_bytes: usize,
    capacity: usize,
    byte_capacity: usize,
    /// Byte budget of the protected class ([`push_protected`]
    /// (OutboundQueue::push_protected)); drop-new past it.
    protected_byte_capacity: usize,
}

impl OutboundQueue {
    /// A queue with the per-peer budgets.
    pub(crate) fn for_peer() -> Self {
        OutboundQueue::new(QUEUE_FRAMES, QUEUE_BYTES, PROTECTED_BYTES)
    }

    fn new(capacity: usize, byte_capacity: usize, protected_byte_capacity: usize) -> Self {
        OutboundQueue {
            queue: VecDeque::new(),
            bytes: 0,
            protected: VecDeque::new(),
            protected_bytes: 0,
            capacity: capacity.max(1),
            byte_capacity: byte_capacity.max(1),
            protected_byte_capacity: protected_byte_capacity.max(1),
        }
    }

    /// Enqueues a frame, dropping the oldest until both the frame-count and
    /// byte budgets hold. The newest frame is always queued (so one frame
    /// larger than the whole byte budget still gets sent; the queue's
    /// memory is bounded by `max(byte_capacity, largest frame)`). Returns
    /// the number of frames dropped.
    pub(crate) fn push(&mut self, frame: Arc<Vec<u8>>) -> u64 {
        let mut dropped = 0;
        while !self.queue.is_empty()
            && (self.queue.len() >= self.capacity || self.bytes + frame.len() > self.byte_capacity)
        {
            if let Some(old) = self.queue.pop_front() {
                self.bytes -= old.len();
                dropped += 1;
            }
        }
        self.bytes += frame.len();
        self.queue.push_back(frame);
        dropped
    }

    /// Enqueues a frame in the **protected** class. Protected frames are
    /// written before anything in the normal queue and are never evicted by
    /// [`push`](OutboundQueue::push)'s drop-oldest; when the protected byte
    /// budget is full, the *new* frame is refused instead (drop-new) —
    /// returns `false` and the caller counts it. The budget exists only to
    /// bound a request flood; the requester's retry machinery re-asks.
    pub(crate) fn push_protected(&mut self, frame: Arc<Vec<u8>>) -> bool {
        if !self.protected.is_empty()
            && self.protected_bytes + frame.len() > self.protected_byte_capacity
        {
            return false;
        }
        self.protected_bytes += frame.len();
        self.protected.push_back(frame);
        true
    }

    /// The next frame to write, the protected class first.
    pub(crate) fn pop(&mut self) -> Option<Arc<Vec<u8>>> {
        if let Some(frame) = self.protected.pop_front() {
            self.protected_bytes -= frame.len();
            return Some(frame);
        }
        let frame = self.queue.pop_front()?;
        self.bytes -= frame.len();
        Some(frame)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::Ordering;
    use std::sync::{mpsc, Mutex};
    use std::time::{Duration, Instant};

    use moonshot_consensus::{
        ConsensusProtocol, Message, MessageVerifier, NodeConfig, Output, TimerToken,
    };
    use moonshot_crypto::Digest;
    use moonshot_telemetry::RingBufferSink;
    use moonshot_types::time::{SimDuration, SimTime};
    use moonshot_types::View;

    use crate::node::Node;
    use crate::runtime::NodeHandle;

    /// What a [`Probe`] was handed, in order: sender, message, and the time
    /// the node stamped it with.
    pub(crate) type Seen = mpsc::Receiver<(NodeId, Message, SimTime)>;

    /// A protocol double for runs over sockets: emits `at_start` when it
    /// starts, sends [`numbered`] requests 0, 1, 2, … to `tick.0` every
    /// `tick.1`, and hands every message it is given to a channel.
    struct Probe {
        verifier: MessageVerifier,
        seen: mpsc::Sender<(NodeId, Message, SimTime)>,
        at_start: Vec<Output>,
        tick: Option<(NodeId, SimDuration)>,
        sent: u64,
    }

    impl ConsensusProtocol for Probe {
        fn start(&mut self, _: SimTime) -> Vec<Output> {
            let token = TimerToken::ViewTimer(View(0));
            let tick = self.tick.map(|(_, after)| Output::SetTimer { token, after });
            std::mem::take(&mut self.at_start).into_iter().chain(tick).collect()
        }
        fn handle_preverified(&mut self, from: NodeId, msg: PreVerified, now: SimTime) -> Vec<Output> {
            let _ = self.seen.send((from, msg.into_inner(), now));
            Vec::new()
        }
        fn verifier(&self) -> &MessageVerifier {
            &self.verifier
        }
        fn handle_timer(&mut self, token: TimerToken, _: SimTime) -> Vec<Output> {
            let Some((to, after)) = self.tick else { return Vec::new() };
            self.sent += 1;
            vec![Output::Send(to, numbered(self.sent - 1)), Output::SetTimer { token, after }]
        }
        fn current_view(&self) -> View {
            View(0)
        }
        fn name(&self) -> &'static str {
            "probe"
        }
    }

    /// A `BlockRequest` carrying `seq` in its block id; it has no
    /// signature to check.
    pub(crate) fn numbered(seq: u64) -> Message {
        let mut id = [0u8; 32];
        id[..8].copy_from_slice(&seq.to_le_bytes());
        Message::BlockRequest { block_id: Digest(id) }
    }

    /// The number a [`numbered`] request carries.
    fn number(msg: &Message) -> u64 {
        match msg {
            Message::BlockRequest { block_id } => {
                u64::from_le_bytes(block_id.0[..8].try_into().unwrap())
            }
            other => panic!("unexpected message {other}"),
        }
    }

    /// A [`Probe`] builder, and what the probe will be handed.
    fn probe(
        at_start: Vec<Output>,
        tick: Option<(NodeId, SimDuration)>,
    ) -> (impl FnOnce(NodeConfig) -> Box<dyn ConsensusProtocol + Send>, Seen) {
        let (seen_tx, seen) = mpsc::channel();
        let probe = move |cfg: NodeConfig| -> Box<dyn ConsensusProtocol + Send> {
            let verifier = MessageVerifier::for_config(&cfg);
            Box::new(Probe { verifier, seen: seen_tx, at_start, tick, sent: 0 })
        };
        (probe, seen)
    }

    fn sink() -> Arc<Mutex<RingBufferSink>> {
        Arc::new(Mutex::new(RingBufferSink::new(1024)))
    }

    /// Node `id` of `n` running a [`Probe`], with the verifier its shard
    /// checks messages with and what the probe is handed.
    pub(crate) fn probe_node(
        id: NodeId,
        n: usize,
        at_start: Vec<Output>,
        tick: Option<(NodeId, SimDuration)>,
    ) -> (Node, Arc<MessageVerifier>, Seen) {
        let (probe, seen) = probe(at_start, tick);
        let cfg = NodeConfig::simulated(id, n, SimDuration::from_millis(50));
        let verifier = Arc::new(MessageVerifier::for_config(&cfg));
        let plane = DissemPlane::new(1 << 20);
        (Node::new(cfg, probe, plane, None, None, sink()), verifier, seen)
    }

    /// Starts node `id` of `peers` over `listener` on `net`, running a
    /// [`Probe`].
    fn start(
        id: NodeId,
        listener: TcpListener,
        peers: &[(NodeId, SocketAddr)],
        net: &Arc<NetPool>,
        at_start: Vec<Output>,
        tick: Option<(NodeId, SimDuration)>,
    ) -> (NodeHandle, Seen) {
        let (probe, seen) = probe(at_start, tick);
        let cfg = TransportConfig::new(id, peers.to_vec(), net.clone());
        let delta = SimDuration::from_millis(50);
        let node = NodeHandle::start(probe, delta, cfg, listener, None, sink()).unwrap();
        (node, seen)
    }

    /// Bytes a queue buffers across both classes.
    fn buffered_bytes(q: &OutboundQueue) -> usize {
        q.bytes + q.protected_bytes
    }

    fn depth(q: &OutboundQueue) -> usize {
        q.queue.len() + q.protected.len()
    }

    /// The counters of `node`'s link to `id`.
    fn peer_metrics(node: &NodeHandle, id: NodeId) -> &PeerMetrics {
        &node.core.peers[&id]
    }

    fn localhost_any() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// An address nothing listens on.
    fn unbound() -> SocketAddr {
        TcpListener::bind(localhost_any()).unwrap().local_addr().unwrap()
    }

    #[test]
    fn queue_drops_oldest_when_full() {
        let mut q = OutboundQueue::new(2, usize::MAX, usize::MAX);
        let f = |b: u8| Arc::new(vec![b]);
        assert_eq!(q.push(f(1)), 0);
        assert_eq!(q.push(f(2)), 0);
        assert_eq!((q.push(f(3)), depth(&q)), (1, 2));
        assert_eq!(q.pop().unwrap()[0], 2); // 1 was dropped
        assert_eq!(q.pop().unwrap()[0], 3);
    }

    #[test]
    fn queue_byte_budget_bounds_memory_under_large_frame_burst() {
        // Regression: with real payloads a single frame can be ~1.8 MB, so
        // a 1024-frame count budget alone would buffer gigabytes. The byte
        // budget must evict the oldest frames instead.
        const FRAME: usize = 1_800_000;
        const BUDGET: usize = 8 * 1024 * 1024;
        let mut q = OutboundQueue::new(1024, BUDGET, usize::MAX);
        let mut dropped_total = 0;
        for i in 0..100u8 {
            dropped_total += q.push(Arc::new(vec![i; FRAME]));
        }
        assert!(buffered_bytes(&q) <= BUDGET, "buffered {} > budget", buffered_bytes(&q));
        assert!(dropped_total >= 95, "expected most frames evicted, dropped {dropped_total}");
        // The freshest frame always survives, oldest go first: the head of
        // the queue is the oldest *retained* frame and the newest is last.
        let first = q.pop().unwrap();
        assert!(first[0] > 90);
        let mut last = first[0];
        while let Some(f) = q.pop() {
            last = f[0];
        }
        assert_eq!(last, 99, "newest frame must never be evicted");
        assert_eq!(buffered_bytes(&q), 0);

        // A frame larger than the whole byte budget is still queued (memory
        // bound = max(budget, one frame)).
        let mut q = OutboundQueue::new(1024, 1024, usize::MAX);
        q.push(Arc::new(vec![1; 4096]));
        assert_eq!(depth(&q), 1);
        assert_eq!((q.push(Arc::new(vec![2; 8])), depth(&q)), (1, 1)); // oversized head evicted
        assert_eq!(q.pop().unwrap()[0], 2);
    }

    /// Regression for the sync-response starvation bug: a flood of normal
    /// frames used to evict queued `BlockResponse`/`BatchResponse` frames
    /// via drop-oldest, wedging the requester behind its retry timeout.
    /// Protected frames must survive any normal-class pressure, be served
    /// first, and bound themselves with drop-*new* (never evicting an
    /// already-promised response).
    #[test]
    fn protected_frames_survive_drop_oldest_and_pop_first() {
        let mut q = OutboundQueue::new(2, 64, 10);

        assert!(q.push_protected(Arc::new(vec![0xA; 4])));
        // Flood the normal class far past both its budgets.
        for i in 0..50u8 {
            q.push(Arc::new(vec![i; 32]));
        }
        // The protected frame is untouched and is served before the
        // (newer) normal frames.
        assert_eq!(q.pop().unwrap()[0], 0xA);

        // Protected overflow drops the NEW frame, not a queued response.
        assert!(q.push_protected(Arc::new(vec![0xB; 8])));
        assert!(!q.push_protected(Arc::new(vec![0xC; 8])), "over budget: must refuse new");
        assert_eq!(q.pop().unwrap()[0], 0xB);
        // A single response larger than the whole budget still goes through
        // when the class is empty (memory bound = max(budget, one frame)).
        assert!(q.push_protected(Arc::new(vec![0xD; 64])));
        assert_eq!(q.pop().unwrap()[0], 0xD);
        // Normal frames are still there underneath, newest retained.
        let mut last = 0;
        while let Some(f) = q.pop() {
            last = f[0];
        }
        assert_eq!(last, 49);
    }

    #[test]
    fn two_nodes_exchange_messages() {
        use moonshot_types::{Block, Payload};

        let net = NetPool::new();
        // Bind both listeners on port 0 first so each side can dial the
        // other — the same pattern `Cluster::launch` uses.
        let l0 = TcpListener::bind(localhost_any()).unwrap();
        let l1 = TcpListener::bind(localhost_any()).unwrap();
        let (a0, a1) = (l0.local_addr().unwrap(), l1.local_addr().unwrap());
        let peers = vec![(NodeId(0), a0), (NodeId(1), a1)];

        let block =
            Block::build(View(1), NodeId(0), &Block::genesis(), Payload::synthetic_items(1, 7));
        let msg = Message::OptPropose { block, view: View(1) };
        // Each node sends the other the proposal as it starts.
        let (t0, seen0) =
            start(NodeId(0), l0, &peers, &net, vec![Output::Send(NodeId(1), msg.clone())], None);
        let (t1, seen1) =
            start(NodeId(1), l1, &peers, &net, vec![Output::Send(NodeId(0), msg.clone())], None);
        // Each node got a shard of its own, as many as the pool may start.
        let cap = std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 8);
        assert_eq!(net.stats().shards, 2.min(cap));

        let (from, got, _) = seen1.recv_timeout(Duration::from_secs(10)).expect("delivery");
        assert_eq!((from, &got), (NodeId(0), &msg));
        // And the reverse direction.
        let (from, _, _) = seen0.recv_timeout(Duration::from_secs(10)).expect("reverse delivery");
        assert_eq!(from, NodeId(1));

        let m = peer_metrics(&t0, NodeId(1));
        assert!(m.bytes_out.load(Ordering::Relaxed) > 0);
        assert_eq!(m.frames_out.load(Ordering::Relaxed), 1);
        // A healthy session — including the startup dial — reports zero
        // reconnects on both sides.
        assert_eq!(m.reconnects.load(Ordering::Relaxed), 0);
        assert_eq!(
            peer_metrics(&t1, NodeId(0)).reconnects.load(Ordering::Relaxed),
            0
        );
        t0.stop();
        t1.stop();
        net.shutdown();
    }

    /// Every vectored write that carried bytes counts once on its link: a
    /// burst queued in one step leaves in fewer writes than frames.
    #[test]
    fn writes_count_the_vectored_writes_that_carried_frames() {
        const FRAMES: u64 = 200;
        let net = NetPool::new();
        let l0 = TcpListener::bind(localhost_any()).unwrap();
        let l1 = TcpListener::bind(localhost_any()).unwrap();
        let (a0, a1) = (l0.local_addr().unwrap(), l1.local_addr().unwrap());
        let peers = vec![(NodeId(0), a0), (NodeId(1), a1)];
        let burst = (0..FRAMES).map(|seq| Output::Send(NodeId(1), numbered(seq))).collect();
        let (t0, _) = start(NodeId(0), l0, &peers, &net, burst, None);
        let (t1, seen1) = start(NodeId(1), l1, &peers, &net, Vec::new(), None);
        for _ in 0..FRAMES {
            seen1.recv_timeout(Duration::from_secs(10)).expect("delivery");
        }
        let m = peer_metrics(&t0, NodeId(1));
        let (writes, frames) =
            (m.writes.load(Ordering::Relaxed), m.frames_out.load(Ordering::Relaxed));
        assert!(frames >= FRAMES, "{frames} frames out");
        assert!(0 < writes && writes <= frames, "{writes} writes for {frames} frames");
        assert!(writes < FRAMES, "a burst of one step is coalesced: {writes} writes");
        // The hello is a write of its own, outside the queue: a link that
        // carried nothing else counts no write.
        let idle = peer_metrics(&t1, NodeId(0));
        let idle = (idle.writes.load(Ordering::Relaxed), idle.frames_out.load(Ordering::Relaxed));
        assert_eq!(idle, (0, 0));
        t0.stop();
        t1.stop();
        net.shutdown();
    }

    /// A peer that says hello and then misbehaves, played by a raw socket:
    /// a vote with one signature byte flipped dies in verification on the
    /// shard that read it and is counted against its sender, and the
    /// connection lives on — the valid vote sent next on it is delivered; a
    /// frame whose CRC does not match its body is a decode error that
    /// closes the connection. Both land in the node's report under the
    /// sender's `net.peer<id>.*`.
    #[test]
    fn hostile_frames_are_counted_against_their_sender() {
        use std::io::{Read, Write};
        use std::net::TcpStream;

        use moonshot_crypto::{KeyPair, Signature};
        use moonshot_types::{Block, SignedVote, Vote, VoteKind};
        use moonshot_wire::{encode_frame, encode_message, Frame};

        let net = NetPool::new();
        let l0 = TcpListener::bind(localhost_any()).unwrap();
        let a0 = l0.local_addr().unwrap();
        // Node 1's address is never listened on: node 0's dials to it fail,
        // and node 1 is the raw socket below.
        let peers = [(NodeId(0), a0), (NodeId(1), unbound())];
        let (t0, seen0) = start(NodeId(0), l0, &peers, &net, Vec::new(), None);
        let link = peer_metrics(&t0, NodeId(1));
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let vote = |view: u64| {
            let genesis = Block::genesis();
            let vote = Vote {
                kind: VoteKind::Normal,
                block_id: genesis.id(),
                block_height: genesis.height(),
                view: View(view),
            };
            SignedVote::sign(vote, NodeId(1), &KeyPair::from_seed(1))
        };

        let mut peer = TcpStream::connect(a0).unwrap();
        peer.write_all(&encode_frame(&Frame::Hello { node: NodeId(1) })).unwrap();

        let mut forged = vote(1);
        let mut sig = forged.signature.to_bytes();
        sig[0] ^= 1;
        forged.signature = Signature::from_bytes(sig);
        peer.write_all(&encode_message(&Message::Vote(forged))).unwrap();
        wait_for("the verify failure", &|| link.verify_failures.load(Ordering::Relaxed) == 1);
        assert!(seen0.try_recv().is_err(), "a forged vote reached the node");

        let valid = Message::Vote(vote(2));
        peer.write_all(&encode_message(&valid)).unwrap();
        let (from, got, _) = seen0.recv_timeout(Duration::from_secs(10)).expect("delivery");
        assert_eq!((from, &got), (NodeId(1), &valid));

        let mut corrupt = encode_message(&Message::Vote(vote(3)));
        corrupt[12] ^= 0xFF; // the header's body CRC
        peer.write_all(&corrupt).unwrap();
        wait_for("the decode error", &|| link.decode_errors.load(Ordering::Relaxed) == 1);
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Node 0 never writes on a connection it accepted: the next read
        // sees only the close.
        match peer.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("connection still open after a decode error: {other:?}"),
        }
        assert!(seen0.try_recv().is_err(), "the corrupt frame reached the node");
        let report = t0.stop().metrics;
        let counter = |name: &str| report.counter(&format!("net.peer1.{name}"));
        assert_eq!((counter("verify_failures"), counter("decode_errors")), (1, 1));
        assert_eq!((counter("dropped_frames"), counter("protected_dropped")), (0, 0));
        net.shutdown();
    }

    /// A peer's consensus messages reach the node in the order they were
    /// read. A raw socket says hello, then writes 2 000 `BlockRequest`s
    /// with distinct block ids in one burst; they carry no signature, so
    /// every one passes verification, and the node's protocol must be
    /// handed exactly those 2 000, in the order they were written.
    #[test]
    fn a_peers_messages_reach_the_node_in_the_order_they_were_read() {
        use std::io::Write;
        use std::net::TcpStream;

        use moonshot_wire::{encode_frame, encode_message, Frame};

        const MESSAGES: u64 = 2_000;
        let net = NetPool::new();
        let l0 = TcpListener::bind(localhost_any()).unwrap();
        let a0 = l0.local_addr().unwrap();
        // Node 1 is the raw socket below; its address is never listened on.
        let peers = [(NodeId(0), a0), (NodeId(1), unbound())];
        let (t0, seen0) = start(NodeId(0), l0, &peers, &net, Vec::new(), None);

        let sent: Vec<Message> = (0..MESSAGES).map(numbered).collect();
        let mut peer = TcpStream::connect(a0).unwrap();
        peer.write_all(&encode_frame(&Frame::Hello { node: NodeId(1) })).unwrap();
        let burst: Vec<u8> = sent.iter().flat_map(encode_message).collect();
        peer.write_all(&burst).unwrap();

        let mut got = Vec::with_capacity(sent.len());
        while got.len() < sent.len() {
            let (from, msg, _) = seen0
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{e} after {} of {MESSAGES} messages", got.len()));
            assert_eq!(from, NodeId(1));
            got.push(msg);
        }
        assert_eq!(got.len(), sent.len());
        if let Some(i) = (0..sent.len()).find(|&i| got[i] != sent[i]) {
            panic!("message {i} of {MESSAGES} delivered out of read order: got {}", got[i]);
        }
        assert!(seen0.try_recv().is_err(), "more messages delivered than were sent");
        t0.stop();
        net.shutdown();
    }

    /// One outbound link per peer, whatever asks for the dial. Node 1 is
    /// stopped and restarted once per gap while node 0 keeps sending it
    /// numbered frames; the gaps put each restart's hello against a
    /// different stage of node 0's redial cycle (a dial in flight, a redial
    /// timer armed), and each incarnation lives long enough for any stale
    /// timer to fire. Node 0 must count one reconnect per restart, and each
    /// incarnation must read one unbroken run of frames in send order: a
    /// second link would count twice and let frames overtake each other.
    #[test]
    fn a_restarted_peer_is_redialed_over_one_link_in_send_order() {
        const GAPS_MS: [u64; 4] = [50, 150, 250, 350];
        /// How long each incarnation reads after its first frame.
        const SETTLE: Duration = Duration::from_millis(500);
        let net = NetPool::new();
        let l0 = TcpListener::bind(localhost_any()).unwrap();
        let l1 = TcpListener::bind(localhost_any()).unwrap();
        let (a0, a1) = (l0.local_addr().unwrap(), l1.local_addr().unwrap());
        let peers = [(NodeId(0), a0), (NodeId(1), a1)];
        let start_1 = |listener| start(NodeId(1), listener, &peers, &net, Vec::new(), None);
        // One incarnation's frames: until the first arrives, then `SETTLE`.
        let read_run = |seen: &Seen, run: &mut Vec<u64>| {
            let (_, first, _) =
                seen.recv_timeout(Duration::from_secs(10)).expect("no frame reached the peer");
            run.push(number(&first));
            let until = Instant::now() + SETTLE;
            while let Some(left) = until.checked_duration_since(Instant::now()) {
                match seen.recv_timeout(left) {
                    Ok((_, got, _)) => run.push(number(&got)),
                    Err(_) => break,
                }
            }
        };

        // Node 0 sends node 1 a numbered frame every millisecond.
        let tick = Some((NodeId(1), SimDuration::from_millis(1)));
        let (t0, _seen0) = start(NodeId(0), l0, &peers, &net, Vec::new(), tick);
        let (mut t1, mut seen1) = start_1(l1);
        let link = peer_metrics(&t0, NodeId(1));
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for gap in GAPS_MS {
            let mut run = Vec::new();
            read_run(&seen1, &mut run);
            assert_eq!(
                link.reconnects.load(Ordering::Relaxed),
                runs.len() as u64,
                "reconnects after {} restarts",
                runs.len()
            );
            t1.stop();
            run.extend(seen1.try_iter().map(|(_, msg, _)| number(&msg)));
            runs.push(run);
            std::thread::sleep(Duration::from_millis(gap));
            (t1, seen1) = start_1(TcpListener::bind(a1).expect("rebind after stop"));
        }
        let mut run = Vec::new();
        read_run(&seen1, &mut run);
        t1.stop();
        run.extend(seen1.try_iter().map(|(_, msg, _)| number(&msg)));
        runs.push(run);
        assert_eq!(
            link.reconnects.load(Ordering::Relaxed),
            GAPS_MS.len() as u64,
            "one reconnect per restart"
        );
        for (i, run) in runs.iter().enumerate() {
            if let Some(w) = run.windows(2).find(|w| w[1] != w[0] + 1) {
                panic!("incarnation {i} read frame {} right after frame {}", w[1], w[0]);
            }
        }
        for (i, pair) in runs.windows(2).enumerate() {
            let (last, first) = (pair[0].last().unwrap(), pair[1][0]);
            assert!(first > *last, "incarnation {} read frame {first} after {last}", i + 1);
        }
        t0.stop();
        net.shutdown();
    }

    /// Regression for the startup race: the first dial happening *before*
    /// the remote listener binds must not count as a reconnect — only a
    /// connection lost after it was once established does.
    #[test]
    fn late_bound_listener_counts_zero_reconnects() {
        let net = NetPool::new();
        let l0 = TcpListener::bind(localhost_any()).unwrap();
        let a0 = l0.local_addr().unwrap();
        // Reserve an address for node 1 but leave it unbound for now, so
        // node 0's first dials fail exactly like the startup race.
        let a1 = unbound();
        let peers = [(NodeId(0), a0), (NodeId(1), a1)];

        // Node 0 keeps sending node 1 a frame every 20 ms.
        let tick = Some((NodeId(1), SimDuration::from_millis(20)));
        let (t0, _seen0) = start(NodeId(0), l0, &peers, &net, Vec::new(), tick);
        // Let several dial attempts fail against the unbound address.
        std::thread::sleep(Duration::from_millis(300));

        let l1 = TcpListener::bind(a1).expect("rebind reserved address");
        let (t1, seen1) = start(NodeId(1), l1, &peers, &net, Vec::new(), None);
        let (from, _, _) = seen1
            .recv_timeout(Duration::from_secs(10))
            .expect("no delivery through late-bound listener");
        assert_eq!(from, NodeId(0));
        let m = peer_metrics(&t0, NodeId(1));
        assert_eq!(
            m.reconnects.load(Ordering::Relaxed),
            0,
            "pre-establishment dial failures must not count as reconnects"
        );

        // Now kill node 1 for real and bring it back: the broken-then-
        // redialed connection *is* a reconnect.
        t1.stop();
        std::thread::sleep(Duration::from_millis(100));
        let l1 = TcpListener::bind(a1).expect("rebind after stop");
        let (t1b, _seen1b) = start(NodeId(1), l1, &peers, &net, Vec::new(), None);
        let deadline = Instant::now() + Duration::from_secs(10);
        while m.reconnects.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            // Node 0's frames into the dead connection fail and force a
            // redial; the successful re-hello increments the counter.
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(
            m.reconnects.load(Ordering::Relaxed),
            1,
            "a lost-then-restored connection must count exactly once"
        );
        t0.stop();
        t1b.stop();
        net.shutdown();
    }
}
