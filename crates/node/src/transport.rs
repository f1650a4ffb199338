//! Per-peer TCP transport — the facade over the shared event-driven
//! network core ([`crate::netpool`]).
//!
//! Topology: every node listens on one socket and dials one outbound
//! connection per peer. A pair of nodes is therefore joined by two
//! unidirectional TCP streams — each node writes only on connections it
//! dialed and reads only on connections it accepted — which keeps
//! connection ownership trivial (no simultaneous-dial deduplication) at the
//! cost of one extra socket per pair.
//!
//! Threading: none of it lives here. A [`NetPool`] — a fixed set of
//! readiness-driven shard loops, one dialer, and a batched sigverify stage
//! — owns every socket. The transport contributes the per-peer
//! bounded outbound queues with **drop-oldest** backpressure (consensus
//! tolerates message loss — the protocols re-sync via certificates and the
//! block fetcher — so dropping the stalest frame beats unbounded buffering
//! or blocking the driver), a protected drop-*new* class for sync
//! responses, and per-peer counters. A transport either owns a private
//! pool (created when [`TransportConfig::pool`] is `None`) or shares one
//! with every other node in an in-process cluster, which is what takes a
//! 50-node localhost cluster from ~50·(n+2) threads to 50 drivers plus one
//! constant-size pool.
//!
//! Every dialed connection opens with a [`moonshot_wire::Frame::Hello`] so
//! the accepting side learns who is talking before the first consensus
//! message.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

use moonshot_consensus::{MessageVerifier, PreVerified};
use moonshot_mempool::{DissemPlane, Mempool};
use moonshot_telemetry::MetricsRegistry;
use moonshot_types::NodeId;

use crate::netpool::{NetPool, NodeCore, PeerState, RECONNECT_BASE};
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

/// A message delivered by the transport to the driver loop.
#[derive(Debug)]
pub struct Inbound {
    /// The sending node (from its hello preamble, or this node itself for
    /// loopback deliveries).
    pub from: NodeId,
    /// The consensus message, every signature in it already checked: in
    /// the pool's sigverify stage, or trivially for loopback copies of this
    /// node's own messages. Nothing reaches the driver unverified.
    pub msg: PreVerified,
}

/// A depth-tracking wrapper around the driver's inbound channel.
///
/// `std::sync::mpsc` channels cannot report their length, but the
/// introspection plane and the stall watchdog both want to know how deep
/// the driver's inbox is. Every producer (shard loops, verify workers, the
/// loopback path) sends through this wrapper, which bumps a shared gauge;
/// the driver decrements the same gauge once per message it dequeues. The
/// gauge is therefore an upper bound that is exact whenever the driver is
/// between messages.
///
/// The channel carries `Option<Inbound>`: `None` is a bare wake-up
/// ([`InboundSender::wake`]) for a driver blocked on it with nothing to
/// deliver, and is not counted in the gauge.
#[derive(Clone, Debug)]
pub struct InboundSender {
    tx: Sender<Option<Inbound>>,
    depth: Arc<AtomicU64>,
}

impl InboundSender {
    /// Wraps a raw channel sender with a fresh depth gauge.
    pub fn new(tx: Sender<Option<Inbound>>) -> InboundSender {
        InboundSender { tx, depth: Arc::new(AtomicU64::new(0)) }
    }

    /// Sends a message, crediting the depth gauge. The credit is rolled
    /// back if the receiver is gone.
    pub fn send(
        &self,
        msg: Inbound,
    ) -> Result<(), Box<std::sync::mpsc::SendError<Option<Inbound>>>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        let result = self.tx.send(Some(msg));
        if result.is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        result.map_err(Box::new)
    }

    /// Wakes the driver without a message: work appeared for it somewhere
    /// it does not block on (a sealed batch awaiting its push). A gone
    /// receiver needs no waking.
    pub fn wake(&self) {
        let _ = self.tx.send(None);
    }

    /// The shared gauge. The consumer must call
    /// `fetch_sub(1, ..)` on it once per message received.
    pub fn depth_gauge(&self) -> Arc<AtomicU64> {
        self.depth.clone()
    }
}

/// Transport configuration for one node.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// This node's id.
    pub node_id: NodeId,
    /// Address to listen on.
    pub listen: SocketAddr,
    /// All peers (entries for `node_id` itself are ignored).
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// When set, `SubmitTx` frames from client connections are fed into
    /// this mempool by the pool's ingest stage (hash + admission control
    /// there, never on the driver). When `None` — a consensus-only node
    /// proposing empty blocks — submissions are ignored.
    pub mempool: Option<Arc<Mempool>>,
    /// When set, the node runtime serves the live introspection plane
    /// (`/status`, `/metrics`) on this address. Port 0 binds ephemerally.
    pub introspect: Option<SocketAddr>,
    /// The node's dissemination plane: shard loops validate and store
    /// `BatchPush`/`BatchResponse` frames into its batch store and answer
    /// `BatchRequest` frames from it, and the driver pushes sealed batches,
    /// proposes and gates votes through the same plane. A fresh one by
    /// default; a restarted node is handed the plane it had.
    pub dissem: Arc<DissemPlane>,
    /// Fault-injection knob (tests): skip this peer when the driver
    /// broadcasts `BatchPush` frames, forcing its fetch path to cover.
    pub drop_batch_push_to: Option<NodeId>,
    /// The shared network core to attach to. `None` (the default) gives
    /// the transport a private pool it owns and shuts down with itself;
    /// in-process clusters pass one pool to every node so the whole
    /// cluster costs a constant number of transport threads.
    pub pool: Option<Arc<NetPool>>,
    /// Per-link latency/bandwidth shaping applied to this node's outbound
    /// connections (sender-side). `None` = unshaped.
    pub shape: Option<Arc<ShapeMatrix>>,
}

impl TransportConfig {
    /// A config for node `node_id` among `peers`: no mempool, no
    /// introspection, no watchdog, a fresh plane, a private unshaped pool.
    pub fn new(node_id: NodeId, listen: SocketAddr, peers: Vec<(NodeId, SocketAddr)>) -> Self {
        TransportConfig {
            node_id,
            listen,
            peers,
            mempool: None,
            introspect: None,
            dissem: DissemPlane::new(DISSEM_STORE_BUDGET),
            drop_batch_push_to: None,
            pool: None,
            shape: None,
        }
    }
}

/// Per-peer transport counters (atomics: written by pool threads, read by
/// whoever snapshots metrics).
#[derive(Debug, Default)]
pub struct PeerMetrics {
    /// Payload bytes written to this peer (frames included).
    pub bytes_out: AtomicU64,
    /// Frames written to this peer.
    pub frames_out: AtomicU64,
    /// Bytes read from this peer.
    pub bytes_in: AtomicU64,
    /// Frames read from this peer.
    pub frames_in: AtomicU64,
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
    /// Current outbound queue depth.
    pub queue_depth: AtomicU64,
    /// Bytes currently buffered in the outbound queue.
    pub queue_bytes: AtomicU64,
    /// Frames from this peer the decoder rejected (connection then dropped).
    pub decode_errors: AtomicU64,
    /// Messages from this peer dropped by sigverify-stage signature
    /// verification (bad signature or certificate).
    pub verify_failures: AtomicU64,
}

pub(crate) struct OutboundQueue {
    frames: Mutex<VecFrames>,
    capacity: usize,
    byte_capacity: usize,
    /// Byte budget of the protected class ([`push_protected`]
    /// (OutboundQueue::push_protected)); drop-new past it.
    protected_byte_capacity: usize,
}

struct VecFrames {
    queue: std::collections::VecDeque<Arc<Vec<u8>>>,
    /// Running sum of queued frame lengths.
    bytes: usize,
    /// The protected class: sync-response frames (`BlockResponse`,
    /// `BatchResponse`). Served before `queue`, never evicted by
    /// drop-oldest — a full protected budget refuses the *new* frame
    /// instead (the requester's retry machinery re-asks).
    protected: std::collections::VecDeque<Arc<Vec<u8>>>,
    /// Running sum of protected frame lengths.
    protected_bytes: usize,
}

impl OutboundQueue {
    pub(crate) fn new(
        capacity: usize,
        byte_capacity: usize,
        protected_byte_capacity: usize,
    ) -> Self {
        OutboundQueue {
            frames: Mutex::new(VecFrames {
                queue: std::collections::VecDeque::new(),
                bytes: 0,
                protected: std::collections::VecDeque::new(),
                protected_bytes: 0,
            }),
            capacity: capacity.max(1),
            byte_capacity: byte_capacity.max(1),
            protected_byte_capacity: protected_byte_capacity.max(1),
        }
    }

    /// Enqueues a frame, dropping the oldest until both the frame-count and
    /// byte budgets hold. The newest frame is always queued (so one frame
    /// larger than the whole byte budget still gets sent; the queue's
    /// memory is bounded by `max(byte_capacity, largest frame)`). Returns
    /// the number of frames dropped and the new depth.
    pub(crate) fn push(&self, frame: Arc<Vec<u8>>) -> (u64, u64) {
        let mut inner = self.frames.lock().unwrap();
        let mut dropped = 0;
        while !inner.queue.is_empty()
            && (inner.queue.len() >= self.capacity
                || inner.bytes + frame.len() > self.byte_capacity)
        {
            if let Some(old) = inner.queue.pop_front() {
                inner.bytes -= old.len();
                dropped += 1;
            }
        }
        inner.bytes += frame.len();
        inner.queue.push_back(frame);
        let depth = (inner.queue.len() + inner.protected.len()) as u64;
        (dropped, depth)
    }

    /// Enqueues a frame in the **protected** class. Protected frames are
    /// written before anything in the normal queue and are never evicted by
    /// [`push`](OutboundQueue::push)'s drop-oldest; when the protected byte
    /// budget is full, the *new* frame is refused instead (drop-new) —
    /// returns `false` and the caller counts it. The budget exists only to
    /// bound a request flood; the requester's retry machinery re-asks.
    pub(crate) fn push_protected(&self, frame: Arc<Vec<u8>>) -> bool {
        let mut inner = self.frames.lock().unwrap();
        if !inner.protected.is_empty()
            && inner.protected_bytes + frame.len() > self.protected_byte_capacity
        {
            return false;
        }
        inner.protected_bytes += frame.len();
        inner.protected.push_back(frame);
        true
    }

    /// The next frame to write, the protected class first.
    pub(crate) fn pop(&self) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.frames.lock().unwrap();
        if let Some(frame) = inner.protected.pop_front() {
            inner.protected_bytes -= frame.len();
            return Some(frame);
        }
        let frame = inner.queue.pop_front()?;
        inner.bytes -= frame.len();
        Some(frame)
    }

    pub(crate) fn depth(&self) -> u64 {
        let inner = self.frames.lock().unwrap();
        (inner.queue.len() + inner.protected.len()) as u64
    }

    /// Bytes currently buffered across both classes (tests, diagnostics).
    pub(crate) fn buffered_bytes(&self) -> usize {
        let inner = self.frames.lock().unwrap();
        inner.bytes + inner.protected_bytes
    }
}

/// The TCP transport for one node: per-peer outbound queues and counters,
/// attached to a [`NetPool`] that does all the socket work. Create with
/// [`Transport::start`], tear down with [`Transport::stop`].
pub struct Transport {
    node: NodeId,
    core: Arc<NodeCore>,
    pool: Arc<NetPool>,
    /// Whether [`stop`](Transport::stop) also shuts the pool down (true
    /// for the private pool a solo transport creates for itself).
    owns_pool: bool,
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Transport(node={}, peers={})", self.node, self.core.peers.len())
    }
}

impl Transport {
    /// Binds the listener and attaches this node to its network pool
    /// (creating a private one when the config names none). Every decoded
    /// consensus message goes through `verifier` in the pool's sigverify
    /// stage — failures are dropped and counted in
    /// [`PeerMetrics::verify_failures`] — and only then into `inbound`.
    ///
    /// A pre-bound `listener` is adopted instead of binding `cfg.listen` —
    /// which lets a cluster bind every node on port 0 first, learn the real
    /// addresses, and only then construct the peer tables.
    pub fn start(
        cfg: TransportConfig,
        listener: Option<TcpListener>,
        verifier: Arc<MessageVerifier>,
        inbound: InboundSender,
    ) -> std::io::Result<Transport> {
        let listener = match listener {
            Some(l) => l,
            None => TcpListener::bind(cfg.listen)?,
        };
        listener.set_nonblocking(true)?;

        let (pool, owns_pool) = match &cfg.pool {
            Some(p) => (p.clone(), false),
            None => (NetPool::new()?, true),
        };

        let mut peers: BTreeMap<NodeId, Arc<PeerState>> = BTreeMap::new();
        let mut addrs: BTreeMap<NodeId, SocketAddr> = BTreeMap::new();
        for (id, addr) in cfg.peers.iter().filter(|(id, _)| *id != cfg.node_id) {
            peers.insert(
                *id,
                Arc::new(PeerState {
                    queue: Arc::new(OutboundQueue::new(
                        QUEUE_FRAMES,
                        QUEUE_BYTES,
                        PROTECTED_BYTES,
                    )),
                    metrics: Arc::new(PeerMetrics::default()),
                    conn: Mutex::new(None),
                    backoff: Mutex::new(RECONNECT_BASE),
                    established_once: AtomicBool::new(false),
                }),
            );
            addrs.insert(*id, *addr);
        }

        let core = Arc::new(NodeCore {
            id: pool.next_core_id(),
            node: cfg.node_id,
            inbound,
            verifier,
            mempool: cfg.mempool.clone(),
            dissem: cfg.dissem.clone(),
            peers,
            addrs,
            shutdown: Arc::new(AtomicBool::new(false)),
            shape: cfg.shape.clone(),
        });
        pool.attach(core.clone(), listener);

        Ok(Transport { node: cfg.node_id, core, pool, owns_pool })
    }

    /// The shared shutdown flag. Lets a holder wind this node's network
    /// activity down before the owning driver exits (idempotent with
    /// [`stop`](Transport::stop)) — cluster teardown broadcasts it so the
    /// pool never redials a peer that is merely being joined first.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.core.shutdown.clone()
    }

    /// Queues `frame` for `peer`. Never blocks: a full queue drops its
    /// oldest frames.
    fn enqueue(&self, peer: &Arc<PeerState>, frame: Arc<Vec<u8>>) {
        let (dropped, depth) = peer.queue.push(frame);
        peer.metrics.dropped_frames.fetch_add(dropped, Ordering::Relaxed);
        peer.metrics.queue_depth.store(depth, Ordering::Relaxed);
        peer.metrics.queue_bytes.store(peer.queue.buffered_bytes() as u64, Ordering::Relaxed);
        self.pool.nudge_peer(peer);
    }

    /// Queues `frame` for `to`. Unknown peers are ignored (the config is the
    /// membership).
    pub fn send(&self, to: NodeId, frame: Arc<Vec<u8>>) {
        if let Some(peer) = self.core.peers.get(&to) {
            self.enqueue(peer, frame);
        }
    }

    /// Queues `frame` for every peer but `except` (self excluded — the
    /// driver loops its own multicasts back directly). `except` is the
    /// driver's `BatchPush` path under the drop-push fault knob.
    pub fn broadcast(&self, frame: Arc<Vec<u8>>, except: Option<NodeId>) {
        for (id, peer) in self.core.peers.iter() {
            if Some(*id) != except {
                self.enqueue(peer, frame.clone());
            }
        }
    }

    /// Queues `frame` for `to` in the **protected** class: served before
    /// the normal queue and exempt from drop-oldest. For sync responses
    /// (`BlockResponse`, `BatchResponse`) whose loss would wedge the
    /// requester behind its own retry timeout.
    pub fn send_priority(&self, to: NodeId, frame: Arc<Vec<u8>>) {
        if let Some(peer) = self.core.peers.get(&to) {
            if !peer.queue.push_protected(frame) {
                peer.metrics.protected_dropped.fetch_add(1, Ordering::Relaxed);
            }
            peer.metrics.queue_depth.store(peer.queue.depth(), Ordering::Relaxed);
            peer.metrics.queue_bytes.store(peer.queue.buffered_bytes() as u64, Ordering::Relaxed);
            self.pool.nudge_peer(peer);
        }
    }

    /// Snapshots per-peer and aggregate counters into `reg` under
    /// `net.peer<id>.*` and `net.total.*`. The atomics hold absolute
    /// totals, so the snapshot writes absolute values (`set_counter`)
    /// rather than increments — calling this repeatedly against a live
    /// registry refreshes it instead of double-counting.
    pub fn snapshot_metrics(&self, reg: &mut MetricsRegistry) {
        let mut totals = [0u64; 6];
        for (id, peer) in &self.core.peers {
            let m = &peer.metrics;
            let depth = peer.queue.depth();
            m.queue_depth.store(depth, Ordering::Relaxed);
            m.queue_bytes.store(peer.queue.buffered_bytes() as u64, Ordering::Relaxed);
            let vals = [
                ("bytes_out", m.bytes_out.load(Ordering::Relaxed)),
                ("frames_out", m.frames_out.load(Ordering::Relaxed)),
                ("bytes_in", m.bytes_in.load(Ordering::Relaxed)),
                ("frames_in", m.frames_in.load(Ordering::Relaxed)),
                ("dropped_frames", m.dropped_frames.load(Ordering::Relaxed)),
                ("reconnects", m.reconnects.load(Ordering::Relaxed)),
            ];
            for (i, (name, v)) in vals.iter().enumerate() {
                reg.set_counter(&format!("net.peer{}.{name}", id.0), *v);
                totals[i] += *v;
            }
            reg.set_gauge(&format!("net.peer{}.queue_depth", id.0), depth as f64);
            reg.set_gauge(
                &format!("net.peer{}.queue_bytes", id.0),
                m.queue_bytes.load(Ordering::Relaxed) as f64,
            );
            reg.set_counter(
                &format!("net.peer{}.decode_errors", id.0),
                m.decode_errors.load(Ordering::Relaxed),
            );
            reg.set_counter(
                &format!("net.peer{}.verify_failures", id.0),
                m.verify_failures.load(Ordering::Relaxed),
            );
            reg.set_counter(
                &format!("net.peer{}.protected_dropped", id.0),
                m.protected_dropped.load(Ordering::Relaxed),
            );
        }
        for (i, name) in
            ["bytes_out", "frames_out", "bytes_in", "frames_in", "dropped_frames", "reconnects"]
                .iter()
                .enumerate()
        {
            reg.set_counter(&format!("net.total.{name}"), totals[i]);
        }
        // The pool's shard/stage counters. With a shared pool these are
        // process-wide, not per-node — every node in a cluster reports the
        // same values, which is exactly what a "how busy is the network
        // core" question wants answered.
        let s = self.pool.stats();
        reg.set_gauge("reactor.shards", s.shards as f64);
        reg.set_counter("reactor.loop_wakeups", s.loop_wakeups);
        reg.set_counter("reactor.frames_processed", s.frames_processed);
        reg.set_gauge(
            "reactor.frames_per_wakeup",
            if s.loop_wakeups > 0 { s.frames_processed as f64 / s.loop_wakeups as f64 } else { 0.0 },
        );
        reg.set_counter("reactor.verify_dropped", s.verify_dropped);
        reg.set_gauge("reactor.verify_queue_depth", s.verify_queue_depth as f64);
        reg.set_gauge("reactor.ingest_queue_depth", s.ingest_queue_depth as f64);
    }

    /// Per-peer metrics handle (for tests and live inspection).
    pub fn peer_metrics(&self, id: NodeId) -> Option<Arc<PeerMetrics>> {
        self.core.peers.get(&id).map(|p| p.metrics.clone())
    }

    /// Every peer's metrics handle, for the introspection plane.
    pub fn peer_metrics_all(&self) -> Vec<(NodeId, Arc<PeerMetrics>)> {
        self.core.peers.iter().map(|(id, p)| (*id, p.metrics.clone())).collect()
    }

    /// Detaches this node from the pool: its sockets close, its redials
    /// stop. A privately owned pool is shut down and joined too; a shared
    /// pool keeps running for its other nodes (the cluster shuts it down
    /// after the last node stops).
    pub fn stop(self) {
        // Order matters: the shutdown flag gates the dialer and the
        // AddOutbound handler, so setting it before the close commands go
        // out means no connection for this node can (re)appear afterwards.
        self.core.shutdown.store(true, Ordering::SeqCst);
        self.pool.detach(&self.core);
        if self.owns_pool {
            self.pool.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn localhost_any() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// A two-node PKI's verifier (the messages below carry no signatures).
    fn verifier() -> Arc<MessageVerifier> {
        let ring = moonshot_crypto::Keyring::simulated(2);
        Arc::new(MessageVerifier::new(ring, Arc::new(moonshot_crypto::VerifiedCache::default())))
    }

    #[test]
    fn queue_drops_oldest_when_full() {
        let q = OutboundQueue::new(2, usize::MAX, usize::MAX);
        let f = |b: u8| Arc::new(vec![b]);
        assert_eq!(q.push(f(1)).0, 0);
        assert_eq!(q.push(f(2)).0, 0);
        let (dropped, depth) = q.push(f(3));
        assert_eq!((dropped, depth), (1, 2));
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
        let q = OutboundQueue::new(1024, BUDGET, usize::MAX);
        let mut dropped_total = 0;
        for i in 0..100u8 {
            dropped_total += q.push(Arc::new(vec![i; FRAME])).0;
        }
        assert!(q.buffered_bytes() <= BUDGET, "buffered {} > budget", q.buffered_bytes());
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
        assert_eq!(q.buffered_bytes(), 0);

        // A frame larger than the whole byte budget is still queued (memory
        // bound = max(budget, one frame)).
        let q = OutboundQueue::new(1024, 1024, usize::MAX);
        q.push(Arc::new(vec![1; 4096]));
        assert_eq!(q.depth(), 1);
        let (dropped, depth) = q.push(Arc::new(vec![2; 8]));
        assert_eq!((dropped, depth), (1, 1)); // oversized head evicted
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
        let q = OutboundQueue::new(2, 64, 10);

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
        use moonshot_consensus::Message;
        use moonshot_types::{Block, Payload, View};

        // Bind both listeners on port 0 first so each side can dial the
        // other — the same pattern `Cluster::launch` uses.
        let l0 = TcpListener::bind(localhost_any()).unwrap();
        let l1 = TcpListener::bind(localhost_any()).unwrap();
        let (a0, a1) = (l0.local_addr().unwrap(), l1.local_addr().unwrap());
        let peers = vec![(NodeId(0), a0), (NodeId(1), a1)];

        let (tx0, rx0) = mpsc::channel();
        let (tx1, rx1) = mpsc::channel();
        let tx0 = InboundSender::new(tx0);
        let tx1 = InboundSender::new(tx1);
        let depth1 = tx1.depth_gauge();
        let t0 = Transport::start(
            TransportConfig::new(NodeId(0), a0, peers.clone()),
            Some(l0),
            verifier(),
            tx0,
        )
        .unwrap();
        let t1 = Transport::start(
            TransportConfig::new(NodeId(1), a1, peers),
            Some(l1),
            verifier(),
            tx1,
        )
        .unwrap();

        let block =
            Block::build(View(1), NodeId(0), &Block::genesis(), Payload::synthetic_items(1, 7));
        let msg = Message::OptPropose { block, view: View(1) };
        let frame = Arc::new(moonshot_wire::encode_message(&msg));
        t0.send(NodeId(1), frame.clone());

        let got = rx1.recv_timeout(Duration::from_secs(10)).expect("delivery");
        let got = got.expect("a message");
        assert_eq!(got.from, NodeId(0));
        assert_eq!(got.msg.message(), &msg);
        // The depth gauge credited the delivery; the consumer debits it.
        assert_eq!(depth1.load(Ordering::Relaxed), 1);
        depth1.fetch_sub(1, Ordering::Relaxed);

        // And the reverse direction.
        t1.send(NodeId(0), frame);
        let got = rx0.recv_timeout(Duration::from_secs(10)).expect("reverse delivery");
        assert_eq!(got.expect("a message").from, NodeId(1));

        let m = t0.peer_metrics(NodeId(1)).unwrap();
        assert!(m.bytes_out.load(Ordering::Relaxed) > 0);
        assert_eq!(m.frames_out.load(Ordering::Relaxed), 1);
        // A healthy session — including the startup dial — reports zero
        // reconnects on both sides.
        assert_eq!(m.reconnects.load(Ordering::Relaxed), 0);
        assert_eq!(
            t1.peer_metrics(NodeId(0)).unwrap().reconnects.load(Ordering::Relaxed),
            0
        );
        t0.stop();
        t1.stop();
    }

    /// Regression for the startup race: the first dial happening *before*
    /// the remote listener binds must not count as a reconnect — only a
    /// connection lost after it was once established does.
    #[test]
    fn late_bound_listener_counts_zero_reconnects() {
        use moonshot_consensus::Message;
        use moonshot_types::{Block, Payload, View};

        let l0 = TcpListener::bind(localhost_any()).unwrap();
        let a0 = l0.local_addr().unwrap();
        // Reserve an address for node 1 but leave it unbound for now, so
        // node 0's first dials fail exactly like the startup race.
        let a1 = {
            let probe = TcpListener::bind(localhost_any()).unwrap();
            probe.local_addr().unwrap()
        };
        let peers = vec![(NodeId(0), a0), (NodeId(1), a1)];

        let (tx0, rx0) = mpsc::channel();
        let t0 = Transport::start(
            TransportConfig::new(NodeId(0), a0, peers.clone()),
            Some(l0),
            verifier(),
            InboundSender::new(tx0),
        )
        .unwrap();
        // Let several dial attempts fail against the unbound address.
        std::thread::sleep(Duration::from_millis(300));

        let l1 = TcpListener::bind(a1).expect("rebind reserved address");
        let (tx1, rx1) = mpsc::channel();
        let t1 = Transport::start(
            TransportConfig::new(NodeId(1), a1, peers),
            Some(l1),
            verifier(),
            InboundSender::new(tx1),
        )
        .unwrap();

        let block =
            Block::build(View(1), NodeId(0), &Block::genesis(), Payload::synthetic_items(1, 9));
        let msg = Message::OptPropose { block, view: View(1) };
        let frame = Arc::new(moonshot_wire::encode_message(&msg));
        // Keep sending until the late listener is reachable and delivers.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            t0.send(NodeId(1), frame.clone());
            match rx1.recv_timeout(Duration::from_millis(200)) {
                Ok(got) => {
                    assert_eq!(got.expect("a message").from, NodeId(0));
                    break;
                }
                Err(_) if Instant::now() < deadline => continue,
                Err(e) => panic!("no delivery through late-bound listener: {e}"),
            }
        }
        let m = t0.peer_metrics(NodeId(1)).unwrap();
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
        let (tx1b, _rx1b) = mpsc::channel();
        let t1b = Transport::start(
            TransportConfig::new(NodeId(1), a1, vec![(NodeId(0), a0), (NodeId(1), a1)]),
            Some(l1),
            verifier(),
            InboundSender::new(tx1b),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while m.reconnects.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            // Writes into the dead/new connection eventually fail and force
            // a redial; the successful re-hello increments the counter.
            t0.send(NodeId(1), frame.clone());
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(
            m.reconnects.load(Ordering::Relaxed),
            1,
            "a lost-then-restored connection must count exactly once"
        );
        drop(rx0);
        t0.stop();
        t1b.stop();
    }
}
