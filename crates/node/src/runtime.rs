//! Starting and stopping a validator. [`NodeHandle::start`] builds the
//! node's sans-IO [`Node`] and hosts it on a shard of the process's
//! [`NetPool`]: that shard, the node's home, steps it on the pool's clock
//! (microseconds since [`NetPool::epoch`], so the
//! [`SimTime`](moonshot_types::time::SimTime)s of every node on one pool
//! are mutually comparable) whenever it has work — a frame its peers sent
//! it, an admission that opens or fills a batch, or the deadline
//! [`Node::poll`] named. The handle is the node's
//! only way to its home shard: it halts the node, reads its report and
//! detaches it. Nothing here runs a thread.

use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use moonshot_consensus::{CommittedBlock, ConsensusProtocol, NodeConfig};
use moonshot_ledger::{Ledger, LedgerOptions};
use moonshot_telemetry::{MetricsRegistry, TraceSink};
use moonshot_types::time::SimDuration;
use moonshot_types::{NodeId, View};

use crate::netpool::{NetPool, NodeCore};
use crate::node::Node;
use crate::transport::{PeerMetrics, TransportConfig};

/// Shared trace sink type accepted by the runtime (thread-safe; the
/// `Arc<Mutex<dyn TraceSink>>` blanket impl makes it a `TraceSink` itself).
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// This process's live thread count, from `/proc/self/status`. `None` where
/// procfs is absent — the `process.threads` gauge is simply not published.
pub fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// What a node hands back when it stops.
#[derive(Debug)]
pub struct NodeReport {
    /// This node's id.
    pub node: NodeId,
    /// Every block the protocol committed, in commit order.
    pub commits: Vec<CommittedBlock>,
    /// The view the node was in when stopped.
    pub final_view: View,
    /// The node's counters, read once when the node stopped from the
    /// components that own them (`driver.*`, `verify.*`, `dissem.*`,
    /// `mempool.*`, `ledger.*`, `net.*`). Latencies are not here: they come
    /// from the trace.
    pub metrics: MetricsRegistry,
}

impl NodeReport {
    /// The whole report as one JSON object.
    pub fn summary_json(&self) -> String {
        let mut o = moonshot_telemetry::json::JsonObject::new();
        o.field_u64("node", self.node.0 as u64);
        o.field_u64("commits", self.commits.len() as u64);
        o.field_u64(
            "committed_height",
            self.commits.last().map(|c| c.block.height().0).unwrap_or(0),
        );
        o.field_u64("final_view", self.final_view.0);
        o.field_raw("metrics", &self.metrics.to_json());
        o.finish()
    }
}

/// A running node, hosted on its home shard of a network pool.
pub struct NodeHandle {
    /// What the node shares with its home shard.
    pub(crate) core: Arc<NodeCore>,
    pool: Arc<NetPool>,
    /// Index of the home shard in the pool.
    home: usize,
    /// Committed height mirror for cheap liveness probes.
    committed_height: Arc<AtomicU64>,
    /// Committed height the node found on its own disk when it started.
    recovered_height: u64,
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeHandle(node={}, home={})", self.core.node, self.home)
    }
}

impl NodeHandle {
    /// Starts a validator — the one way a node is wired, whoever starts it
    /// (an in-process cluster, a restart, the `moonshot-node` binary).
    ///
    /// `protocol` builds the state machine over the node's configuration
    /// ([`ProtocolChoice::build`](crate::ProtocolChoice::build)): seed-derived
    /// keys among `cfg.peers`, view timers derived from `delta`. The node
    /// proposes references to the oldest batches in `cfg.dissem`'s
    /// proposable pool, gates its votes on holding the referenced bytes
    /// (fetching what no push delivered), and hands the protocol a peer's
    /// consensus message only once it has checked it, in the step that
    /// takes it in, through the protocol's own verifier.
    ///
    /// With `cfg.mempool` the node also seals the pool into batches of
    /// its base size ([`Sealer`](moonshot_mempool::Sealer)), and stores,
    /// pushes and enters each into the proposable pool in the step that
    /// sealed it; the admissions that open or fill a batch wake its shard.
    ///
    /// With `data_dir` the node is durable: its ledger under
    /// `<data_dir>/node-<id>/` is opened (or recovered) before anything can
    /// vote — votes and timeouts hit the WAL before the wire, the committed
    /// chain and safety floors of a previous incarnation reach the protocol
    /// constructor, catch-up consults the blockstore before dialing peers,
    /// and the node appends every block it commits in the step that
    /// commits it.
    ///
    /// `listener` is the node's bound socket: its address is the one its
    /// peers dial, and a cluster binds every node on port 0 first, learns
    /// the real addresses, and only then builds the peer tables.
    /// `sink` receives the trace; every timestamp in it is microseconds
    /// since the [`epoch`](NetPool::epoch) of the pool `cfg` names.
    pub fn start(
        protocol: impl FnOnce(NodeConfig) -> Box<dyn ConsensusProtocol + Send>,
        delta: SimDuration,
        cfg: TransportConfig,
        listener: TcpListener,
        data_dir: Option<&Path>,
        sink: SharedSink,
    ) -> std::io::Result<NodeHandle> {
        let id = cfg.node_id;
        let mut node_cfg = NodeConfig::simulated(id, cfg.peers.len(), delta);
        let ledger = match data_dir {
            Some(dir) => {
                let (ledger, recovered) =
                    Ledger::open(dir.join(format!("node-{}", id.0)), LedgerOptions::default())?;
                node_cfg.persist = Some(ledger.clone());
                node_cfg.local_blocks = Some(ledger.clone());
                node_cfg.recover = Some(recovered);
                Some(ledger)
            }
            None => None,
        };
        let (plane, pool) = (cfg.dissem, cfg.mempool.clone());
        let mut node = Node::new(node_cfg, protocol, plane, pool, cfg.drop_batch_push_to, sink);
        if let Some(ledger) = ledger {
            node = node.durable(ledger);
        }
        let committed_height = node.height_gauge();
        let recovered_height = committed_height.load(Ordering::Relaxed);

        listener.set_nonblocking(true)?;
        let peers: Vec<_> = cfg.peers.into_iter().filter(|&(peer, _)| peer != id).collect();
        let core = Arc::new(NodeCore {
            id: cfg.pool.next_core_id(),
            node: id,
            mempool: cfg.mempool,
            peers: peers.iter().map(|&(peer, _)| (peer, PeerMetrics::default())).collect(),
            shape: cfg.shape,
        });
        let home = cfg.pool.attach(core.clone(), listener, node, peers)?;
        Ok(NodeHandle { core, pool: cfg.pool, home, committed_height, recovered_height })
    }

    /// Highest height this node has committed so far (updated live).
    pub fn committed_height(&self) -> u64 {
        self.committed_height.load(Ordering::Relaxed)
    }

    /// The committed height this incarnation recovered from its own disk
    /// (0 without a ledger, or on a first start).
    pub fn recovered_height(&self) -> u64 {
        self.recovered_height
    }

    /// Stops the node and detaches it from the pool, returning the final
    /// report.
    pub fn stop(self) -> NodeReport {
        let report = self.halt();
        self.detach();
        report
    }

    /// Takes the node back from its home shard, which steps it and dials
    /// for it no more, and builds its report, net counters included. Its
    /// sockets stay open, and the frames it queued keep leaving, until
    /// [`detach`](NodeHandle::detach): a cluster reads every node's report
    /// before any socket closes, so no node counts as dropped the frames
    /// its shapers still held toward a peer that closed first, and none
    /// sees a link drop and counts the redial as a reconnect.
    pub(crate) fn halt(&self) -> NodeReport {
        let mut report = self.pool.halt(self.home, self.core.id).stop();
        if let Some(threads) = process_threads() {
            report.metrics.set_gauge("process.threads", threads as f64);
        }
        self.snapshot_metrics(&mut report.metrics);
        report
    }

    /// Writes the node's net counters into `reg`: `net.total.*` sums the
    /// traffic counters over peers, and each peer keeps its own
    /// `net.peer<id>.bytes_out`, `writes` and its fault counters
    /// (`dropped_frames`, `protected_dropped`, `decode_errors`,
    /// `verify_failures`).
    fn snapshot_metrics(&self, reg: &mut MetricsRegistry) {
        const TOTALS: [&str; 6] =
            ["bytes_out", "bytes_in", "frames_out", "writes", "dropped_frames", "reconnects"];
        let mut totals = [0u64; 6];
        for (id, m) in &self.core.peers {
            let traffic = [
                &m.bytes_out,
                &m.bytes_in,
                &m.frames_out,
                &m.writes,
                &m.dropped_frames,
                &m.reconnects,
            ];
            for (total, counter) in totals.iter_mut().zip(traffic) {
                *total += counter.load(Ordering::Relaxed);
            }
            for (name, counter) in [
                ("bytes_out", &m.bytes_out),
                ("writes", &m.writes),
                ("dropped_frames", &m.dropped_frames),
                ("protected_dropped", &m.protected_dropped),
                ("decode_errors", &m.decode_errors),
                ("verify_failures", &m.verify_failures),
            ] {
                let value = counter.load(Ordering::Relaxed);
                reg.set_counter(&format!("net.peer{}.{name}", id.0), value);
            }
        }
        for (name, total) in TOTALS.iter().zip(totals) {
            reg.set_counter(&format!("net.total.{name}"), total);
        }
    }

    /// Detaches a [halted](NodeHandle::halt) node from the pool: its
    /// sockets close. The pool keeps running for its other nodes; its
    /// owner shuts it down after the last one stops.
    pub(crate) fn detach(self) {
        // The halt took the node, every dial checks for it, and the home
        // shard handles its commands in order, so no connection for this
        // node can (re)appear once the detach is out.
        self.pool.detach(self.home, self.core.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{SocketAddr, TcpStream};
    use std::time::{Duration, Instant};

    use moonshot_consensus::Message;
    use moonshot_mempool::{batch_digest, make_tx, DissemPlane, Mempool, MempoolConfig};
    use moonshot_telemetry::RingBufferSink;
    use moonshot_types::{BatchRef, Block, Payload};
    use moonshot_wire::{encode_frame, encode_message, Frame};
    use crate::netpool::NetPool;
    use crate::node::tests::Recorder;

    /// Node 0 of two over `plane` (and `pool`, if any), recording what it
    /// is handed into `handled`, and the address it listens on. Node 1's
    /// address is never listened on: a test plays node 1 over a raw socket.
    fn lone_node(
        net: &Arc<NetPool>,
        plane: &Arc<DissemPlane>,
        pool: Option<Arc<Mempool>>,
        handled: &Arc<Mutex<Vec<crate::node::tests::Handled>>>,
    ) -> (NodeHandle, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let absent = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let peers = vec![(NodeId(0), addr), (NodeId(1), absent)];
        let mut cfg = TransportConfig::new(NodeId(0), peers, net.clone());
        cfg.dissem = plane.clone();
        cfg.mempool = pool.map(|pool| (pool, 18_000));
        let node = NodeHandle::start(
            Recorder::build(plane, handled, None),
            SimDuration::from_millis(50),
            cfg,
            listener,
            None,
            Arc::new(Mutex::new(RingBufferSink::new(1024))),
        )
        .expect("start");
        (node, addr)
    }

    /// Sealing runs on the node's home shard, and the shard is woken for
    /// it, not ticked: each transaction arrives while the shard is blocked
    /// with no timer of the node's armed but its stall deadline, and with
    /// ω̂ unmeasured its batch is due 200 µs after the wake-up. Only the
    /// node's deadline steps it otherwise: a lost wake-up leaves the
    /// transaction in the pool until the stall watchdog's 2 s deadline,
    /// and the median assert fails.
    #[test]
    fn an_admission_wakes_the_home_shard_to_seal() {
        let plane = DissemPlane::new(1 << 20);
        let pool = Arc::new(Mempool::new(MempoolConfig::default()));
        let net = NetPool::new();
        let (node, _) = lone_node(&net, &plane, Some(pool.clone()), &Arc::default());
        let mut waits = Vec::new();
        for seq in 0..20u64 {
            std::thread::sleep(Duration::from_millis(100));
            let submitted = Instant::now();
            pool.submit(make_tx(0, 1, seq, 180)).unwrap();
            while plane.pool.proposable(usize::MAX).len() <= seq as usize {
                assert!(submitted.elapsed() < Duration::from_secs(10), "transaction {seq}");
                std::thread::sleep(Duration::from_micros(100));
            }
            waits.push(submitted.elapsed());
        }
        node.stop();
        net.shutdown();
        waits.sort_unstable();
        let median = waits[waits.len() / 2];
        assert!(median < Duration::from_millis(10), "submit to proposable: {waits:?}");
        assert_eq!(plane.counters.stats().batches_pushed, 20);
    }

    /// A gated message is delivered when its batch lands, with no other
    /// message and no timer due: the shard that reads the push hands it to
    /// the node and steps it. Node 1, a raw socket, sends synced blocks
    /// that each name a batch the node lacks, so the gate holds them (and
    /// their fetches go to node 1, whose link never comes up); node 1 then
    /// pushes the batch.
    #[test]
    fn a_gated_arrival_wakes_the_home_shard_to_deliver() {
        let plane = DissemPlane::new(1 << 20);
        let handled = Arc::new(Mutex::new(Vec::new()));
        let net = NetPool::new();
        let (node, addr) = lone_node(&net, &plane, None, &handled);
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all(&encode_frame(&Frame::Hello { node: NodeId(1) })).unwrap();
        let mut waits = Vec::new();
        for seq in 0..20u8 {
            let batch = BatchRef { digest: batch_digest(&[seq; 64]), bytes: 64 };
            let payload = Payload::batches(vec![batch]);
            let block = Block::build(View(1), NodeId(1), &Block::genesis(), payload);
            peer.write_all(&encode_message(&Message::BlockResponse { block })).unwrap();
            let gated = Instant::now();
            while plane.counters.stats().votes_gated <= seq as u64 {
                assert!(gated.elapsed() < Duration::from_secs(10), "block {seq} was not gated");
                std::thread::sleep(Duration::from_micros(100));
            }
            // The shard is blocked again before the batch lands.
            std::thread::sleep(Duration::from_millis(20));
            let arrived = Instant::now();
            let bytes = vec![seq; 64].into();
            peer.write_all(&encode_frame(&Frame::BatchPush { digest: batch.digest, bytes })).unwrap();
            while handled.lock().unwrap().len() <= seq as usize {
                assert!(arrived.elapsed() < Duration::from_secs(10), "block {seq}");
                std::thread::sleep(Duration::from_micros(100));
            }
            waits.push(arrived.elapsed());
        }
        node.stop();
        net.shutdown();
        waits.sort_unstable();
        let median = waits[waits.len() / 2];
        assert!(median < Duration::from_millis(10), "arrival to delivery: {waits:?}");
    }
}
