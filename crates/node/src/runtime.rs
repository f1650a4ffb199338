//! The driver thread: one per node, stepping its sans-IO [`Node`] on the
//! wall clock (microseconds since a shared cluster epoch `Instant`, so every
//! node's [`SimTime`]s are mutually comparable) over the TCP [`Transport`].
//!
//! It reads the clock per message and per timer sweep, applies each step's
//! output before the next step (a multicast's one `Arc`'d frame to every
//! peer queue, loopback copies into the node's own inbox) and blocks until
//! the deadline [`Node::poll`] names. Every wait ends on an event or that
//! deadline: a message, an admission that opens or fills a batch, a batch
//! landing while the vote gate waits on one, or a stop.

use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moonshot_consensus::{CommittedBlock, ConsensusProtocol, MessageVerifier, NodeConfig};
use moonshot_ledger::{Ledger, LedgerOptions};
use moonshot_telemetry::{MetricsRegistry, TraceSink};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{NodeId, View};

use crate::node::{Emit, Node};
use crate::transport::{Inbound, InboundSender, Transport, TransportConfig};

/// Shared trace sink type accepted by the runtime (thread-safe; the
/// `Arc<Mutex<dyn TraceSink>>` blanket impl makes it a `TraceSink` itself).
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// Most messages drained from the inbound channel per driver iteration.
/// Bounds how long the timer sweep can be starved by a message flood while
/// still amortizing the sweep (and the deadline probe) over a whole
/// batch instead of paying it per message.
const BATCH_LIMIT: usize = 256;

/// This process's live thread count, from `/proc/self/status`. `None` where
/// procfs is absent — the `process.threads` gauge is simply not published.
pub fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// What the driver thread hands back when it stops.
#[derive(Debug)]
pub struct NodeReport {
    /// This node's id.
    pub node: NodeId,
    /// Every block the protocol committed, in commit order.
    pub commits: Vec<CommittedBlock>,
    /// The view the node was in when stopped.
    pub final_view: View,
    /// The node's counters, read once when the driver stopped from the
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

/// A running node: its driver thread, attached to a network pool.
#[derive(Debug)]
pub struct NodeHandle {
    /// The one shutdown flag, shared with the transport. Set, it stops the
    /// network pool redialing this node's peers at once, and ends the
    /// driver's loop at its next wake-up (which
    /// [`signal_stop`](NodeHandle::signal_stop) sends).
    shutdown: Arc<AtomicBool>,
    /// The driver's inbox: stops wake the driver through it, and tests
    /// play the network through it.
    inbound: InboundSender,
    driver: Option<JoinHandle<NodeReport>>,
    /// Committed height mirror for cheap liveness probes.
    committed_height: Arc<AtomicU64>,
    /// Committed height the node found on its own disk when it started.
    recovered_height: u64,
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
    /// (fetching what no push delivered), and takes in consensus messages
    /// only once the pool's shard loop that read them has verified them
    /// against the protocol's verified-certificate cache.
    ///
    /// With `cfg.mempool` the driver also seals the pool into batches of
    /// its base size ([`Sealer`](moonshot_mempool::Sealer)), and stores,
    /// pushes and enters each into the proposable pool in the step that
    /// sealed it; the admissions that open or fill a batch wake it.
    ///
    /// With `data_dir` the node is durable: its ledger under
    /// `<data_dir>/node-<id>/` is opened (or recovered) before anything can
    /// vote — votes and timeouts hit the WAL before the wire, the committed
    /// chain and safety floors of a previous incarnation reach the protocol
    /// constructor, catch-up consults the blockstore before dialing peers,
    /// and the driver appends every block it commits in the step that
    /// commits it.
    ///
    /// `listener` adopts a pre-bound socket instead of binding
    /// `cfg.listen`. `epoch` is the cluster-wide time origin; every trace
    /// timestamp is microseconds since it, and `sink` receives the trace.
    pub fn start(
        protocol: impl FnOnce(NodeConfig) -> Box<dyn ConsensusProtocol + Send>,
        delta: SimDuration,
        cfg: TransportConfig,
        listener: Option<TcpListener>,
        data_dir: Option<&Path>,
        epoch: Instant,
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
        // The shard loops verify with the protocol's own keyring and cache,
        // as its replica core does.
        let verifier = Arc::new(MessageVerifier::for_config(&node_cfg));
        let (raw_tx, rx) = mpsc::channel::<Option<Inbound>>();
        let tx = InboundSender::new(raw_tx);
        let (plane, pool, depth) = (cfg.dissem.clone(), cfg.mempool.clone(), tx.depth_gauge());
        let mut node =
            Node::new(node_cfg, protocol, plane.clone(), pool, cfg.drop_batch_push_to, sink, depth);
        if let Some(ledger) = ledger {
            node = node.durable(ledger);
        }
        // An admission that opens or fills a batch wakes the driver to seal
        // it, and a batch landing while the vote gate waits on one wakes it
        // to deliver (each replacing the hook of a killed predecessor on the
        // same pool and plane).
        if let Some((pool, base)) = &cfg.mempool {
            let waker = tx.clone();
            pool.wake_on_admit(move || waker.wake(), *base as u64);
        }
        let waker = tx.clone();
        plane.store.wake_on_insert(move || waker.wake());
        let committed_height = node.height_gauge();
        let recovered_height = committed_height.load(Ordering::Relaxed);
        let shutdown = Arc::new(AtomicBool::new(false));
        let transport = Transport::start(cfg, listener, verifier, tx.clone(), shutdown.clone())?;
        let (flag, loopback) = (shutdown.clone(), tx.clone());
        let driver = std::thread::Builder::new()
            .name(format!("driver-{id}"))
            .spawn(move || run_driver(node, transport, loopback, rx, flag, epoch))
            .expect("spawn driver");
        let driver = Some(driver);
        Ok(NodeHandle { shutdown, inbound: tx, driver, committed_height, recovered_height })
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

    /// Signals the driver to exit without joining it. Cluster teardown
    /// signals every node before joining any: a node whose peers are
    /// being torn down while it still considers itself live would see
    /// their connections drop, redial, and count a spurious `reconnect`
    /// against a clean run.
    pub fn signal_stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.inbound.wake();
    }

    /// Stops the driver and the transport, returning the final report.
    pub fn stop(mut self) -> NodeReport {
        self.signal_stop();
        self.driver.take().expect("driver still attached").join().expect("driver panicked")
    }
}

/// The driver loop, owning the transport so it can be consumed on exit —
/// `NodeHandle::stop` returns only after the node's sockets are detached
/// from the network pool. (A mempool and a dissemination plane handed in
/// outlive the node.)
fn run_driver(
    mut node: Node,
    transport: Transport,
    loopback: InboundSender,
    rx: mpsc::Receiver<Option<Inbound>>,
    shutdown: Arc<AtomicBool>,
    epoch: Instant,
) -> NodeReport {
    let clock = || SimTime(epoch.elapsed().as_micros() as u64);
    let send = |node: &mut Node| {
        for emit in node.output() {
            match emit {
                Emit::Send(to, frame) => transport.send(to, frame),
                Emit::Protected(to, frame) => transport.send_priority(to, frame),
                Emit::Broadcast(frame, except) => transport.broadcast(frame, except),
                Emit::Loopback(inbound) => loopback.send(*inbound),
            }
        }
    };
    node.start(clock());
    send(&mut node);

    while !shutdown.load(Ordering::SeqCst) {
        let deadline = node.poll(clock());
        send(&mut node);
        // The driver holds a loopback sender, so the channel never
        // disconnects: every wait ends on an item or the deadline. A `None`
        // item is a bare wake-up: it ends the wait and carries nothing.
        let first = match deadline {
            Some(at) => {
                rx.recv_timeout(Duration::from_micros(at.since(clock()).as_micros())).ok()
            }
            None => rx.recv().ok(),
        };
        let Some(first) = first else { continue };
        // Batch-drain: after the blocking receive, pull whatever else is
        // already queued (bounded) so one timer sweep serves the whole
        // batch instead of running between every two messages. Each message
        // is stamped as the node takes it.
        let (mut next, mut drained) = (Some(first), 0);
        node.handle(std::iter::from_fn(|| loop {
            let item = next.take()?;
            drained += 1;
            next = if drained < BATCH_LIMIT { rx.try_recv().ok() } else { None };
            if let Some(inbound) = item {
                return Some((clock(), inbound));
            }
        }));
        send(&mut node);
    }

    let mut report = node.stop();
    if let Some(threads) = process_threads() {
        report.metrics.set_gauge("process.threads", threads as f64);
    }
    transport.snapshot_metrics(&mut report.metrics);
    transport.stop();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    use moonshot_consensus::{Message, PreVerified};
    use moonshot_mempool::{batch_digest, make_tx, DissemPlane, Mempool, MempoolConfig};
    use moonshot_telemetry::RingBufferSink;
    use moonshot_types::{BatchRef, Block, Payload};
    use crate::netpool::NetPool;
    use crate::node::tests::Recorder;

    /// A lone node of one over `plane` (and `pool`, if any), recording
    /// what it is handed into `handled`.
    fn lone_node(
        net: &Arc<NetPool>,
        plane: &Arc<DissemPlane>,
        pool: Option<Arc<Mempool>>,
        handled: &Arc<Mutex<Vec<crate::node::tests::Handled>>>,
    ) -> NodeHandle {
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let mut cfg = TransportConfig::new(NodeId(0), addr, vec![(NodeId(0), addr)], net.clone());
        cfg.dissem = plane.clone();
        cfg.mempool = pool.map(|pool| (pool, 18_000));
        NodeHandle::start(
            Recorder::build(plane, handled, None),
            SimDuration::from_millis(50),
            cfg,
            None,
            None,
            Instant::now(),
            Arc::new(Mutex::new(RingBufferSink::new(1024))),
        )
        .expect("start")
    }

    /// Sealing runs on the driver, and the driver is woken for it, not
    /// ticked: each transaction arrives while the driver is blocked with no
    /// timer armed, and with ω̂ unmeasured its batch is due 200 µs after
    /// the wake-up. The driver has no fallback tick: a lost wake-up leaves
    /// the transaction in the pool until the stall watchdog's 2 s deadline,
    /// and the median assert fails.
    #[test]
    fn an_admission_wakes_the_driver_to_seal() {
        let plane = DissemPlane::new(1 << 20);
        let pool = Arc::new(Mempool::new(MempoolConfig::default()));
        let net = NetPool::new().unwrap();
        let node = lone_node(&net, &plane, Some(pool.clone()), &Arc::default());
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
    /// message and no timer due: the insert wakes the driver. Each synced
    /// block names a batch the node lacks, so the gate holds it (and its
    /// first fetch goes to a peer the node does not know); the batch then
    /// arrives as a shard thread would store a verified push.
    #[test]
    fn a_gated_arrival_wakes_the_driver_to_deliver() {
        let plane = DissemPlane::new(1 << 20);
        let handled = Arc::new(Mutex::new(Vec::new()));
        let net = NetPool::new().unwrap();
        let node = lone_node(&net, &plane, None, &handled);
        let mut waits = Vec::new();
        for seq in 0..20u8 {
            let batch = BatchRef { digest: batch_digest(&[seq; 64]), bytes: 64 };
            let payload = Payload::batches(vec![batch]);
            let block = Block::build(View(1), NodeId(1), &Block::genesis(), payload);
            let msg = PreVerified::trusted(Message::BlockResponse { block });
            node.inbound.send(Inbound { from: NodeId(1), msg });
            let gated = Instant::now();
            while plane.counters.stats().votes_gated <= seq as u64 {
                assert!(gated.elapsed() < Duration::from_secs(10), "block {seq} was not gated");
                std::thread::sleep(Duration::from_micros(100));
            }
            // The driver is blocked again before the batch lands.
            std::thread::sleep(Duration::from_millis(20));
            let arrived = Instant::now();
            assert!(plane.store.insert(batch.digest, vec![seq; 64].into()));
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
