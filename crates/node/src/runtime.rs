//! The driver loop: one thread that owns a protocol state machine and
//! bridges it to real I/O.
//!
//! The state machines are sans-IO ([`ConsensusProtocol`]): they consume
//! messages and timer expirations and emit [`Output`]s. Under the
//! discrete-event simulator, virtual time and a priority queue drive them;
//! here the same unmodified machines run against wall-clock time
//! (microseconds since a shared cluster epoch `Instant`, so every node's
//! [`SimTime`]s are mutually comparable), a [`TimerWheel`], and the TCP
//! [`Transport`].
//!
//! Multicasts are encoded **once** into an `Arc`'d frame shared by every
//! peer queue; the protocol's own copy is looped back through the same
//! inbound channel the network uses (the protocols expect
//! multicast-includes-self). Tracing rides the [`ProtocolObserver`] hook at
//! the call boundary — identical events to the simulator's, so the
//! trace-driven invariant checker works on cluster runs unchanged.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moonshot_consensus::{
    BatchFetchPlan, BatchFetcher, CommittedBlock, ConsensusProtocol, Message, MessageVerifier,
    NodeConfig, Output, PayloadSource, PreVerified, ProtocolObserver, RetryPolicy, TimerToken,
};
use moonshot_crypto::{Digest, VerifiedCache};
use moonshot_ledger::{Ledger, LedgerOptions};
use moonshot_mempool::{DissemPlane, Mempool, BATCH_TX_OVERHEAD};
use moonshot_telemetry::{
    MetricsRegistry, TraceEvent, TraceRecord, TraceSink, STAGE_BUCKETS, STAGE_BUCKET_WIDTH_US,
};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{Block, BlockId, NodeId, Payload, View};
use moonshot_wire::{encode_frame, encode_message, Frame};

use crate::introspect::{IntrospectServer, IntrospectState};
use crate::timer::TimerWheel;
use crate::transport::{Inbound, InboundSender, Transport, TransportConfig};

/// Shared trace sink type accepted by the runtime (thread-safe; the
/// `Arc<Mutex<dyn TraceSink>>` blanket impl makes it a `TraceSink` itself).
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// Longest the driver sleeps before re-checking shutdown. Everything else it
/// waits for reaches it on its own: messages and sealed-batch wake-ups
/// through the inbound channel, timers through the wheel's next deadline.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// Most messages drained from the inbound channel per driver iteration.
/// Bounds how long the timer sweep can be starved by a message flood while
/// still amortizing the sweep (and the `next_deadline` probe) over a whole
/// batch instead of paying it per message.
const BATCH_LIMIT: usize = 256;

/// How often the driver republishes its counters into the live
/// introspection registry. Rare enough to be invisible on the hot loop,
/// frequent enough that `/metrics` is never more than a blink stale.
const LIVE_REFRESH: Duration = Duration::from_millis(200);

/// Stage-map entries above which the tracker resets — a leak guard for
/// blocks that never commit (e.g. equivocation garbage under faults).
const STAGE_MAP_LIMIT: usize = 16_384;

/// Most sealed batches pushed to peers per driver iteration. Bounds one
/// iteration's broadcast work; the rest push next iteration, which then
/// follows without blocking.
const PUSH_LIMIT: usize = 64;

/// Most messages parked while their batch refs resolve. Past it the oldest
/// is dropped — the protocol's own sync machinery (certificates + the block
/// fetcher) re-delivers anything that mattered.
const GATED_LIMIT: usize = 1024;

/// No commit for this many Δ (≈ tens of block periods) means the node is
/// wedged; the watchdog turns that into a `Stall` trace snapshot.
const STALL_DELTA_MULTIPLE: u64 = 40;

/// Most batch refs one proposal carries (the oldest first).
const PROPOSAL_MAX_REFS: usize = 256;

/// How many blocks behind the commit frontier a committed batch stays in the
/// `BatchStore` before GC. Wide enough that report-time tx accounting and a
/// lagging peer's fetch both resolve; narrow enough that steady-state store
/// bytes stay flat instead of riding the eviction budget.
const DISSEM_RETAIN_BLOCKS: u64 = 512;

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
    /// Driver + transport counters (`driver.*`, `net.*`).
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

/// The driver's trace path: forwards every record to the shared sink and
/// folds per-stage latency deltas into the live introspection registry as
/// they happen.
///
/// Stage spans are keyed by block id. The proposal timestamp is the first
/// `ProposalSent`/`ProposalReceived` for the block (whichever this node
/// sees first — the sender stamps send time, everyone else stamps arrival);
/// `QcFormed` closes the vote-gathering span and `BlockCommitted` closes
/// the certificate-to-commit span, pruning the block's entries.
struct TracingSink {
    inner: SharedSink,
    state: Arc<IntrospectState>,
    /// Block id → first proposal timestamp (µs since epoch).
    proposed_at: HashMap<BlockId, u64>,
    /// Block id → first QC timestamp (µs since epoch).
    qc_at: HashMap<BlockId, u64>,
}

impl TracingSink {
    fn new(inner: SharedSink, state: Arc<IntrospectState>) -> TracingSink {
        TracingSink { inner, state, proposed_at: HashMap::new(), qc_at: HashMap::new() }
    }

    fn observe_stage(&self, stage: &str, value_us: u64) {
        if let Ok(mut live) = self.state.live.lock() {
            live.observe_with(
                &format!("stage_latency_us.{stage}"),
                value_us,
                STAGE_BUCKET_WIDTH_US,
                STAGE_BUCKETS,
            );
        }
    }

    /// Folds one sealed batch's per-transaction queue delays into
    /// `stage_latency_us.mempool_queue` and, in coarse units, into
    /// `mempool.queue_delay_ms` — the histogram the admission control loop
    /// is judged by (1 ms buckets spanning 30 s).
    fn observe_queue_delays(&self, queue_us: &[u64]) {
        if let Ok(mut live) = self.state.live.lock() {
            for &queued in queue_us {
                live.observe_with(
                    "stage_latency_us.mempool_queue",
                    queued,
                    STAGE_BUCKET_WIDTH_US,
                    STAGE_BUCKETS,
                );
                live.observe_with("mempool.queue_delay_ms", queued / 1_000, 1, 30_000);
            }
        }
    }
}

impl TraceSink for TracingSink {
    fn record(&mut self, rec: TraceRecord) {
        let at = rec.at.0;
        match rec.event {
            TraceEvent::ProposalSent { block, .. }
            | TraceEvent::ProposalReceived { block, .. } => {
                if self.proposed_at.len() >= STAGE_MAP_LIMIT {
                    self.proposed_at.clear();
                }
                self.proposed_at.entry(block).or_insert(at);
            }
            TraceEvent::VoteCast { block, .. } => {
                if let Some(&proposed) = self.proposed_at.get(&block) {
                    self.observe_stage("proposal_to_vote", at.saturating_sub(proposed));
                }
            }
            TraceEvent::QcFormed { block, .. } => {
                if self.qc_at.len() >= STAGE_MAP_LIMIT {
                    self.qc_at.clear();
                }
                if let std::collections::hash_map::Entry::Vacant(e) = self.qc_at.entry(block) {
                    let proposed = self.proposed_at.get(e.key()).copied();
                    e.insert(at);
                    if let Some(proposed) = proposed {
                        self.observe_stage("vote_to_qc", at.saturating_sub(proposed));
                    }
                }
            }
            TraceEvent::BlockCommitted { block, .. } => {
                if let Some(qc) = self.qc_at.remove(&block) {
                    self.observe_stage("qc_to_commit", at.saturating_sub(qc));
                }
                self.proposed_at.remove(&block);
            }
            _ => {}
        }
        self.inner.record(rec);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// A running node: driver thread + transport threads (+ the introspection
/// server when configured).
#[derive(Debug)]
pub struct NodeHandle {
    shutdown: Arc<AtomicBool>,
    /// The transport's own flag, signalled alongside `shutdown` so writer
    /// threads stop redialing immediately rather than after the driver's
    /// next poll tick.
    transport_shutdown: Arc<AtomicBool>,
    driver: Option<JoinHandle<NodeReport>>,
    /// Committed height mirror for cheap liveness probes.
    committed_height: Arc<AtomicU64>,
    /// Committed height the node found on its own disk when it started.
    recovered_height: u64,
    /// The driver's inbox, for tests that play the network.
    #[cfg(test)]
    inbound: InboundSender,
    introspect: Option<IntrospectServer>,
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
    /// only through the pool's sigverify stage, which shares the protocol's
    /// verified-certificate cache.
    ///
    /// With `data_dir` the node is durable: its ledger under
    /// `<data_dir>/node-<id>/` is opened (or recovered) before anything can
    /// vote — votes and timeouts hit the WAL before the wire, the committed
    /// chain and safety floors of a previous incarnation reach the protocol
    /// constructor, catch-up consults the blockstore before dialing peers,
    /// and every committed block is appended on a dedicated writer thread.
    ///
    /// `listener` adopts a pre-bound socket instead of binding
    /// `cfg.listen`. `epoch` is the cluster-wide time origin; every trace
    /// timestamp is microseconds since it. `state` is the introspection
    /// state the driver publishes into; when `cfg.introspect` is set, an
    /// [`IntrospectServer`] is started on it.
    #[allow(clippy::too_many_arguments)] // the node's full wiring surface
    pub fn start(
        protocol: impl FnOnce(NodeConfig) -> Box<dyn ConsensusProtocol + Send>,
        delta: SimDuration,
        cfg: TransportConfig,
        listener: Option<TcpListener>,
        data_dir: Option<&Path>,
        epoch: Instant,
        sink: SharedSink,
        state: Arc<IntrospectState>,
    ) -> std::io::Result<NodeHandle> {
        let node = cfg.node_id;
        let mut node_cfg = NodeConfig::simulated(node, cfg.peers.len(), delta);
        let ledger = match data_dir {
            Some(dir) => {
                let (ledger, recovered) =
                    Ledger::open(dir.join(format!("node-{}", node.0)), LedgerOptions::default())?;
                node_cfg.persist = Some(ledger.clone());
                node_cfg.local_blocks = Some(ledger.clone());
                node_cfg.recover = Some(recovered);
                Some(ledger)
            }
            None => None,
        };
        // Reading takes nothing out of the pool: the driver marks the refs
        // in flight when it sees the proposal, as it does for everyone
        // else's.
        let dissem = cfg.dissem.clone();
        let plane = dissem.clone();
        node_cfg.payloads = PayloadSource::Custom(Box::new(move |_| {
            Payload::batches(plane.pool.proposable(PROPOSAL_MAX_REFS))
        }));
        let verifier = Arc::new(MessageVerifier::for_config(&node_cfg));
        let cache = node_cfg.verified_cache.clone();
        let mut protocol = protocol(node_cfg);

        let mempool = cfg.mempool.clone();
        let introspect_addr = cfg.introspect;
        let stall_timeout = Duration::from_micros(delta.as_micros() * STALL_DELTA_MULTIPLE);
        let drop_push_to = cfg.drop_batch_push_to;
        let batch_fetcher =
            BatchFetcher::new(node, cfg.peers.len(), RetryPolicy::auto().resolve(delta));
        let (raw_tx, rx) = mpsc::channel::<Option<Inbound>>();
        let tx = InboundSender::new(raw_tx);
        // A batch sealed while the driver sleeps wakes it for the push
        // (replacing the hook of a killed predecessor on this plane).
        let waker = tx.clone();
        dissem.queue.on_sealed(move || waker.wake());
        let transport = Transport::start(cfg, listener, verifier, tx.clone())?;
        let transport_shutdown = transport.shutdown_flag();
        state.set_peers(transport.peer_metrics_all());
        state.set_inbound_gauge(tx.depth_gauge());
        if let Some(pool) = &mempool {
            state.set_mempool(pool.clone());
        }
        let introspect = match introspect_addr {
            Some(addr) => Some(IntrospectServer::start(addr, state.clone())?),
            None => None,
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        // A recovered node starts at its disk height, not zero: liveness
        // probes and status reads should never report a restarted node as
        // having lost its chain.
        let recovered_height = ledger.as_ref().map(|l| l.recovered_height()).unwrap_or(0);
        let committed_height = Arc::new(AtomicU64::new(recovered_height));
        state.status.committed_height.store(recovered_height, Ordering::Relaxed);

        // Committed blocks flow to disk through a dedicated writer thread so
        // segment appends (and periodic snapshots) never block the driver.
        let ledger_writer = ledger.clone().map(|ledger| {
            let (tx, rx) = mpsc::channel::<moonshot_types::Block>();
            let writer = std::thread::Builder::new()
                .name(format!("ledger-{node}"))
                .spawn(move || {
                    while let Ok(block) = rx.recv() {
                        if let Err(e) = ledger.append_committed(&block) {
                            eprintln!("[node {node}] ledger append failed: {e}");
                            break;
                        }
                    }
                })
                .expect("spawn ledger writer");
            (tx, writer)
        });

        let driver = {
            let shutdown = shutdown.clone();
            let committed_height = committed_height.clone();
            let loopback = tx.clone();
            let inbound_depth = tx.depth_gauge();
            std::thread::Builder::new()
                .name(format!("driver-{node}"))
                .spawn(move || {
                    let driver = Driver {
                        node,
                        transport,
                        loopback,
                        inbound_depth,
                        wheel: TimerWheel::new(SimDuration::from_millis(1), 4096),
                        observer: ProtocolObserver::new(node),
                        sink: TracingSink::new(sink, state.clone()),
                        state,
                        epoch,
                        commits: Vec::new(),
                        committed_height,
                        cache,
                        mempool,
                        dissem,
                        drop_push_to,
                        batch_fetcher,
                        sealed_at_us: HashMap::new(),
                        gated: VecDeque::new(),
                        gated_dropped: 0,
                        ledger,
                        ledger_writer,
                        stall_timeout,
                        last_commit_at_us: 0,
                        messages_handled: 0,
                        timers_fired: 0,
                        batches: 0,
                        stalls: 0,
                    };
                    run_driver(driver, &mut *protocol, rx, shutdown)
                })
                .expect("spawn driver")
        };

        Ok(NodeHandle {
            shutdown,
            transport_shutdown,
            driver: Some(driver),
            committed_height,
            recovered_height,
            #[cfg(test)]
            inbound: tx,
            introspect,
        })
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

    /// The address the introspection server listens on, when enabled.
    pub fn introspect_addr(&self) -> Option<SocketAddr> {
        self.introspect.as_ref().map(|s| s.local_addr())
    }

    /// Signals the driver to exit without joining it. Cluster teardown
    /// signals every node before joining any: a node whose peers are
    /// being torn down while it still considers itself live would see
    /// their connections drop, redial, and count a spurious `reconnect`
    /// against a clean run.
    pub fn signal_stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.transport_shutdown.store(true, Ordering::SeqCst);
    }

    /// Stops the driver, transport, and introspection server, returning
    /// the final report.
    pub fn stop(mut self) -> NodeReport {
        self.shutdown.store(true, Ordering::SeqCst);
        let report =
            self.driver.take().expect("driver still attached").join().expect("driver panicked");
        if let Some(server) = self.introspect.take() {
            server.stop();
        }
        report
    }
}

/// A message the vote gate parked: it references batches the local store
/// cannot resolve yet, so handing it to the protocol now would either vote
/// blind or reject a valid proposal.
struct GatedMessage {
    from: NodeId,
    msg: PreVerified,
    /// Refs still unresolved; delivery happens when this drains empty.
    missing: HashSet<Digest>,
}

/// The block a message carries in full. `CompactPropose` carries none —
/// its block travelled with the view's optimistic proposal.
fn carried_block(msg: &Message) -> Option<&Block> {
    match msg {
        Message::OptPropose { block, .. }
        | Message::Propose { block, .. }
        | Message::FbPropose { block, .. }
        | Message::BlockResponse { block } => Some(block),
        _ => None,
    }
}

/// Commit feedback for one block: unpins the committed batches this node
/// sealed and feeds their transactions — in whoever's block they
/// committed, and nobody else's transactions — to the drain rate behind
/// delay-bounded admission; the latency EWMA learns from every commit.
/// Counting is a pin lookup per batch: no walk over payload bytes, no hash.
fn feed_commit(pool: &Mempool, block: &Block, latency_us: Option<u64>, now_us: u64) {
    let (mut txs, mut bytes) = (0u64, 0u64);
    for b in block.payload().batch_refs().unwrap_or(&[]) {
        if let Some(n) = pool.release_batch(&b.digest) {
            txs += n;
            bytes += b.bytes.saturating_sub(n * BATCH_TX_OVERHEAD as u64);
        }
    }
    pool.note_commit(txs > 0, txs, bytes, latency_us, now_us);
}

struct Driver {
    node: NodeId,
    transport: Transport,
    loopback: InboundSender,
    /// Shared inbound-channel depth gauge, debited once per dequeue.
    inbound_depth: Arc<AtomicU64>,
    wheel: TimerWheel,
    observer: ProtocolObserver,
    sink: TracingSink,
    state: Arc<IntrospectState>,
    epoch: Instant,
    commits: Vec<CommittedBlock>,
    committed_height: Arc<AtomicU64>,
    cache: Arc<VerifiedCache>,
    /// The node's mempool (`None` for a consensus-only node), fed commit
    /// feedback; its admission counters land in the final report.
    mempool: Option<Arc<Mempool>>,
    /// The dissemination plane: sealed batches to push, the batch store,
    /// the proposable pool.
    dissem: Arc<DissemPlane>,
    /// Fault-injection knob: peer skipped by `BatchPush` broadcasts, so
    /// tests can force its fetch fallback to cover.
    drop_push_to: Option<NodeId>,
    /// Outstanding batch fetches for the vote gate's fallback path.
    batch_fetcher: BatchFetcher,
    /// Seal time of every batch this node pushed and has not yet seen in a
    /// proposal — what closes its seal→propose wait.
    sealed_at_us: HashMap<Digest, u64>,
    /// Proposals / synced blocks parked until every batch ref they carry
    /// resolves in the local store.
    gated: VecDeque<GatedMessage>,
    /// Gated messages evicted by [`GATED_LIMIT`].
    gated_dropped: u64,
    /// The durable ledger, for metrics publication.
    ledger: Option<Arc<Ledger>>,
    /// Channel + thread that append committed blocks to the ledger off the
    /// driver loop. Dropping the sender stops the thread.
    ledger_writer: Option<(mpsc::Sender<moonshot_types::Block>, JoinHandle<()>)>,
    /// Stall-watchdog threshold.
    stall_timeout: Duration,
    /// When the last commit landed (µs since epoch; 0 = none yet). Reset
    /// on every watchdog firing so a persistent wedge emits a stall per
    /// threshold interval rather than one per loop iteration.
    last_commit_at_us: u64,
    messages_handled: u64,
    timers_fired: u64,
    batches: u64,
    stalls: u64,
}

/// The driver loop, owning the [`Driver`] so the transport can be consumed
/// (joined) on exit — `NodeHandle::stop` returns only after every socket
/// thread is gone.
fn run_driver(
    mut driver: Driver,
    protocol: &mut dyn ConsensusProtocol,
    rx: mpsc::Receiver<Option<Inbound>>,
    shutdown: Arc<AtomicBool>,
) -> NodeReport {
    let t = driver.now();
    let outputs = protocol.start(t);
    driver.process(protocol, outputs, t);
    // Seed the live registry before the first message: a `/metrics` scrape
    // is valid from the instant the node is reachable, not only after the
    // first periodic refresh 200ms in.
    driver.refresh_live();
    let mut last_refresh = Instant::now();

    while !shutdown.load(Ordering::SeqCst) {
        let now = driver.now();
        for token in driver.wheel.expire(now) {
            driver.timers_fired += 1;
            let t = driver.now();
            if token == TimerToken::BatchFetchTimer {
                // Dissemination-plane timer: handled entirely by the
                // driver, never by the protocol.
                let plan = driver.batch_fetcher.on_timer(t);
                driver.execute_fetch_plan(plan, t);
                continue;
            }
            driver.observer.on_timer_fired(token, t, &mut driver.sink);
            let outputs = protocol.handle_timer(token, t);
            driver.process(protocol, outputs, t);
        }

        // Whatever the timers and the last round of messages left behind
        // on the dissemination plane, before blocking.
        let more_sealed = driver.sync_dissem(protocol);

        driver.check_stall(protocol);
        driver.publish_status(protocol);
        if last_refresh.elapsed() >= LIVE_REFRESH {
            driver.refresh_live();
            last_refresh = Instant::now();
        }

        let wait = match driver.wheel.next_deadline() {
            // Sealed batches past the push limit are work, not a wait.
            _ if more_sealed => Duration::ZERO,
            Some(deadline) => {
                Duration::from_micros(deadline.since(driver.now()).as_micros()).min(MAX_WAIT)
            }
            None => MAX_WAIT,
        };
        // Batch-drain: after the blocking receive, pull whatever else is
        // already queued (bounded) so one timer sweep serves the whole
        // batch instead of running between every two messages. A `None` is
        // a bare wake-up: it ends the wait and carries nothing.
        let received = rx.recv_timeout(wait);
        // And again on waking, before the messages that ended the wait are
        // dispatched: a proposal one of them triggers carries every batch
        // that arrived while the driver was blocked (a peer's push reaches
        // the store without waking it), and a gated proposal whose push
        // arrived is delivered ahead of them. (A cut by the push limit is
        // picked up before the next wait.)
        driver.sync_dissem(protocol);
        match received {
            Ok(first) => {
                driver.batches += 1;
                let mut next = Some(first);
                let mut drained = 0;
                while let Some(item) = next {
                    if let Some(inbound) = item {
                        driver.inbound_depth.fetch_sub(1, Ordering::Relaxed);
                        driver.dispatch(protocol, inbound);
                    }
                    drained += 1;
                    next = if drained < BATCH_LIMIT { rx.try_recv().ok() } else { None };
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    driver.sink.flush();
    driver.publish_status(protocol);
    // Flush remaining committed blocks to disk before the final metrics
    // snapshot, so `ledger.*` counters in the report cover every commit.
    if let Some((tx, writer)) = driver.ledger_writer.take() {
        drop(tx);
        let _ = writer.join();
    }
    driver.refresh_live();
    // The final report *is* the live registry: everything `/metrics`
    // served mid-run (driver counters, stage histograms, transport and
    // mempool state) lands in `summary_json` with no separate assembly.
    let metrics = driver.state.live.lock().unwrap().clone();

    driver.transport.stop();

    NodeReport {
        node: driver.node,
        commits: driver.commits,
        final_view: protocol.current_view(),
        metrics,
    }
}

impl Driver {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// Publishes the hot status fields (view, lock, timers) into the
    /// introspection state. Runs once per loop iteration; all stores are
    /// relaxed atomics.
    fn publish_status(&self, protocol: &dyn ConsensusProtocol) {
        let s = &self.state.status;
        s.current_view.store(protocol.current_view().0, Ordering::Relaxed);
        s.locked_view.store(protocol.locked_view().0, Ordering::Relaxed);
        s.timers_armed.store(self.wheel.len() as u64, Ordering::Relaxed);
    }

    /// The stall watchdog: if no commit landed within the configured
    /// threshold, emit a [`TraceEvent::Stall`] snapshot and re-arm. The
    /// snapshot carries the driver state a human would first ask about —
    /// which view we're stuck in, how deep the inbox is, how many timers
    /// are armed, how much the mempool is holding.
    fn check_stall(&mut self, protocol: &dyn ConsensusProtocol) {
        let now = self.now();
        if now.0.saturating_sub(self.last_commit_at_us) < self.stall_timeout.as_micros() as u64 {
            return;
        }
        self.stalls += 1;
        self.state.status.stalls.store(self.stalls, Ordering::Relaxed);
        // Re-arm from now so a persistent wedge produces one stall event
        // per threshold interval, not one per loop iteration.
        self.last_commit_at_us = now.0;
        let event = TraceEvent::Stall {
            node: self.node,
            view: protocol.current_view(),
            height: moonshot_types::Height(self.committed_height.load(Ordering::Relaxed)),
            inbound: self.inbound_depth.load(Ordering::Relaxed),
            timers: self.wheel.len() as u64,
            mempool: self.mempool.as_ref().map(|p| p.len()).unwrap_or(0),
        };
        self.sink.record(TraceRecord { at: now, event });
    }

    /// Republishes every driver-side counter into the live registry as
    /// absolute values, so `/metrics` reads and the final report are the
    /// same snapshot at different times.
    fn refresh_live(&mut self) {
        let cache = self.cache.stats();
        let mempool = self.mempool.clone();
        let mut live = match self.state.live.lock() {
            Ok(live) => live,
            Err(_) => return,
        };
        live.set_counter("driver.messages_handled", self.messages_handled);
        live.set_counter("driver.timers_fired", self.timers_fired);
        live.set_counter("driver.commits", self.commits.len() as u64);
        live.set_counter("driver.batches", self.batches);
        live.set_counter("driver.stalls", self.stalls);
        live.set_gauge("driver.timers_armed", self.wheel.len() as f64);
        live.set_gauge("driver.inbound_depth", self.inbound_depth.load(Ordering::Relaxed) as f64);
        live.set_counter("verify.cache_hits", cache.hits);
        live.set_counter("verify.cache_misses", cache.misses);
        live.set_counter("verify.cache_inserts", cache.inserts);
        live.set_counter("verify.cache_rejects", cache.rejects);
        live.set_counter("verify.cache_evictions", cache.evictions);
        live.set_gauge("verify.cache_len", cache.len as f64);
        live.set_counter("crypto.batch_verify_calls", cache.batch_calls);
        live.set_counter("crypto.batch_verify_items", cache.batch_items);
        if let Some(threads) = process_threads() {
            live.set_gauge("process.threads", threads as f64);
        }
        if let Some(ledger) = &self.ledger {
            ledger.publish_into(&mut live);
        }
        let plane = &self.dissem;
        let s = plane.counters.stats();
        live.set_counter("dissem.batches_pushed", s.batches_pushed);
        live.set_counter("dissem.batch_bytes_pushed", s.batch_bytes_pushed);
        live.set_counter("dissem.batches_stored", s.batches_stored);
        live.set_counter("dissem.digest_mismatches", s.digest_mismatches);
        live.set_counter("dissem.fetches", s.fetches);
        live.set_counter("dissem.fetches_served", s.fetches_served);
        live.set_counter("dissem.fetches_missed", s.fetches_missed);
        live.set_counter("dissem.votes_gated", s.votes_gated);
        live.set_counter("dissem.evicted", s.evicted);
        live.set_counter("dissem.store_pruned_committed", s.pruned_committed);
        live.set_counter("dissem.gated_dropped", self.gated_dropped);
        live.set_gauge("dissem.store_batches", plane.store.len() as f64);
        live.set_gauge("dissem.store_bytes", plane.store.bytes() as f64);
        live.set_gauge("dissem.backlog_bytes", plane.backlog_bytes() as f64);
        live.set_counter("dissem.requeued", plane.pool.requeued());
        live.set_gauge("dissem.gated", self.gated.len() as f64);
        live.set_gauge("dissem.fetch_outstanding", self.batch_fetcher.outstanding() as f64);
        if let Some(pool) = &mempool {
            let c = pool.counters();
            live.set_counter("mempool.submitted", c.submitted);
            live.set_counter("mempool.accepted", c.accepted);
            live.set_counter("mempool.rejected", c.rejected);
            live.set_counter("mempool.rejected_delay", c.rejected_delay);
            live.set_counter("mempool.deduped", c.deduped);
            live.set_counter("mempool.fair_visits", pool.fair_visits());
            live.set_counter("mempool.batches_grown", pool.batches_grown());
            live.set_gauge("mempool.pending", pool.len() as f64);
            live.set_gauge("mempool.pending_bytes", pool.pending_bytes() as f64);
            live.set_gauge("mempool.drain_bytes_per_sec", pool.drain_bytes_per_sec() as f64);
            live.set_gauge("mempool.drain_txs_per_sec", pool.drain_txs_per_sec() as f64);
            live.set_gauge(
                "mempool.queue_delay_target_ms",
                pool.delay_target_us() as f64 / 1_000.0,
            );
            live.set_gauge(
                "mempool.projected_delay_ms",
                pool.projected_delay_us() as f64 / 1_000.0,
            );
            live.set_gauge("mempool.batch_target_bytes", pool.batch_target_bytes() as f64);
            live.set_gauge("mempool.clients_active", pool.clients_active() as f64);
        }
        self.transport.snapshot_metrics(&mut live);
    }

    /// Feeds one inbound message toward the protocol. A proposal (or synced
    /// block) whose batch refs the local store cannot resolve is *gated*:
    /// parked until the refs arrive (normally the in-flight `BatchPush`,
    /// else the fetch fallback kicked off here) so the protocol never votes
    /// for data this node could not re-serve.
    fn dispatch(&mut self, protocol: &mut dyn ConsensusProtocol, inbound: Inbound) {
        let Inbound { from, msg } = inbound;
        if let Some(block) = carried_block(msg.message()) {
            // On receipt, not on delivery: this node may lead the next view
            // off a certificate while the gate below still holds the body.
            self.note_proposed(block);
        }
        let missing = self.unresolved_refs(msg.message());
        if !missing.is_empty() {
            let t = self.now();
            self.dissem.counters.votes_gated.fetch_add(1, Ordering::Relaxed);
            // The sender certainly holds the bytes (it proposed or voted
            // for them), so it is the first fetch hint — asked at once for
            // a synced block, whose pushes are long gone, and only after
            // the push has had its Δ for a fresh proposal.
            let push_in_flight = !matches!(msg.message(), Message::BlockResponse { .. });
            for d in &missing {
                let plan = self.batch_fetcher.request(*d, [from], t, push_in_flight);
                self.execute_fetch_plan(plan, t);
            }
            if self.gated.len() >= GATED_LIMIT {
                self.gated.pop_front();
                self.gated_dropped += 1;
            }
            self.gated.push_back(GatedMessage { from, msg, missing });
            return;
        }
        self.deliver(protocol, from, msg);
    }

    /// Hands one message to the protocol. Every message was verified before
    /// it reached the driver, so the driver thread itself performs no
    /// signature checks.
    fn deliver(&mut self, protocol: &mut dyn ConsensusProtocol, from: NodeId, msg: PreVerified) {
        self.messages_handled += 1;
        let t = self.now();
        self.observer.on_message_received(from, msg.message(), t, &mut self.sink);
        let outputs = protocol.handle_preverified(from, msg, t);
        self.process(protocol, outputs, t);
    }

    /// The batch refs in `msg` the local store cannot resolve.
    /// `CompactPropose` carries no block — its payload was gated with the
    /// view's optimistic proposal.
    fn unresolved_refs(&self, msg: &Message) -> HashSet<Digest> {
        let refs = carried_block(msg).and_then(|b| b.payload().batch_refs()).unwrap_or(&[]);
        refs.iter()
            .filter(|r| !self.dissem.store.contains(&r.digest))
            .map(|r| r.digest)
            .collect()
    }

    /// Sends the `BatchRequest` frames a fetcher plan asks for and arms its
    /// retry timer.
    fn execute_fetch_plan(&mut self, plan: BatchFetchPlan, t: SimTime) {
        for (to, digest) in plan.requests {
            self.dissem.counters.fetches.fetch_add(1, Ordering::Relaxed);
            self.transport.send(to, Arc::new(encode_frame(&Frame::BatchRequest { digest })));
        }
        if let Some(after) = plan.rearm {
            self.wheel.arm(t + after, TimerToken::BatchFetchTimer);
        }
    }

    /// A proposal or synced block reached this node (or left it): its refs
    /// are in flight under it from here on, and the ones this node sealed
    /// have waited this long to be proposed.
    fn note_proposed(&mut self, block: &Block) {
        let refs = block.payload().batch_refs().unwrap_or(&[]);
        if refs.is_empty() {
            return;
        }
        self.dissem.pool.referenced(block.id(), block.height().0, refs);
        let now_us = self.now().0;
        for r in refs {
            if let Some(sealed) = self.sealed_at_us.remove(&r.digest) {
                self.sink.observe_stage("propose_wait", now_us.saturating_sub(sealed));
            }
        }
    }

    /// The dissemination plane's turn: broadcast freshly sealed batches
    /// (before they can be proposed — push-before-propose), then drain the
    /// store's arrival log into the proposable pool and release gated votes. Returns [`push_batches`](Driver::push_batches)'s
    /// "more remain".
    fn sync_dissem(&mut self, protocol: &mut dyn ConsensusProtocol) -> bool {
        let more_sealed = self.push_batches();
        self.drain_stored(protocol);
        more_sealed
    }

    /// Stores freshly sealed batches, broadcasts them as `BatchPush` frames
    /// and only then enters them into the proposable pool — the
    /// push-before-propose guarantee: this node can only propose its own
    /// ref after the bytes sit in every peer's send queue, and per-peer TCP
    /// FIFO keeps the push ahead of the proposal on the wire. This is also
    /// where a batch's seal telemetry lands, once, on the node that sealed
    /// it: a [`TraceEvent::BatchSealed`] record backdated to the seal and
    /// the per-transaction mempool-queue delays the assembler computed.
    /// Returns whether [`PUSH_LIMIT`] cut the drain short, i.e. sealed
    /// batches may remain that no wake-up will announce.
    fn push_batches(&mut self) -> bool {
        let plane = self.dissem.clone();
        let sealed = plane.queue.take_sealed(PUSH_LIMIT);
        let more = sealed.len() == PUSH_LIMIT;
        for b in sealed {
            plane.store.insert(b.digest, b.bytes.clone());
            let frame = Arc::new(encode_frame(&Frame::BatchPush {
                digest: b.digest,
                bytes: b.bytes.clone(),
            }));
            self.transport.broadcast(frame, self.drop_push_to);
            plane.counters.batches_pushed.fetch_add(1, Ordering::Relaxed);
            plane.counters.batch_bytes_pushed.fetch_add(b.bytes.len() as u64, Ordering::Relaxed);
            plane.pool.stored(b.batch_ref(), true);
            self.sealed_at_us.insert(b.digest, b.sealed_at_us);
            self.sink.observe_queue_delays(&b.queue_us);
            self.sink.record(TraceRecord {
                at: SimTime(b.sealed_at_us),
                event: TraceEvent::BatchSealed {
                    node: self.node,
                    batch: b.digest,
                    txs: b.tx_count,
                    bytes: b.bytes.len() as u64,
                },
            });
        }
        more
    }

    /// Drains the store's arrival log: enters the arrivals into the
    /// proposable pool, records `BatchStored` trace events, settles
    /// outstanding fetches, and delivers any gated message whose missing set
    /// drained empty.
    fn drain_stored(&mut self, protocol: &mut dyn ConsensusProtocol) {
        let stored = self.dissem.store.take_stored();
        if stored.is_empty() {
            return;
        }
        let t = self.now();
        for b in &stored {
            // (A no-op for this node's own batches: the push step entered
            // them as its own.)
            self.dissem.pool.stored(*b, false);
            self.batch_fetcher.fulfilled(&b.digest);
            self.sink.record(TraceRecord {
                at: t,
                event: TraceEvent::BatchStored { node: self.node, batch: b.digest },
            });
        }
        let mut i = 0;
        while i < self.gated.len() {
            for b in &stored {
                self.gated[i].missing.remove(&b.digest);
            }
            if self.gated[i].missing.is_empty() {
                let g = self.gated.remove(i).expect("index bounded by len");
                self.deliver(protocol, g.from, g.msg);
            } else {
                i += 1;
            }
        }
    }

    fn process(&mut self, protocol: &mut dyn ConsensusProtocol, outputs: Vec<Output>, t: SimTime) {
        // Commit feedback to the mempool. Must run before `on_outputs`:
        // recording `BlockCommitted` prunes the block's proposal timestamp
        // from the tracing sink, and the proposal→commit latency sample
        // needs it.
        if let Some(pool) = &self.mempool {
            for out in &outputs {
                let Output::Commit(c) = out else { continue };
                let latency = self
                    .sink
                    .proposed_at
                    .get(&c.block.id())
                    .map(|&proposed| t.0.saturating_sub(proposed));
                feed_commit(pool, &c.block, latency, t.0);
            }
        }
        self.observer.on_outputs(&outputs, protocol.current_view(), t, &mut self.sink);
        for out in outputs {
            match out {
                Output::Send(to, msg) => {
                    if to == self.node {
                        // Loopback of a self-signed message: trivially
                        // verified.
                        let _ = self
                            .loopback
                            .send(Inbound { from: self.node, msg: PreVerified::trusted(msg) });
                    } else if matches!(msg, Message::BlockResponse { .. }) {
                        // Sync responses ride the protected queue class:
                        // dropping one under drop-oldest pressure would
                        // starve the exact node whose progress blocks on it.
                        self.transport.send_priority(to, Arc::new(encode_message(&msg)));
                    } else {
                        self.transport.send(to, Arc::new(encode_message(&msg)));
                    }
                }
                Output::Multicast(msg) => {
                    if let Some(block) = carried_block(&msg) {
                        // Our own proposal: in flight before anything else
                        // can ask the pool for a payload.
                        self.note_proposed(block);
                    }
                    // Encode once; every peer queue shares the same bytes.
                    let frame = Arc::new(encode_message(&msg));
                    self.transport.broadcast(frame, None);
                    let _ = self
                        .loopback
                        .send(Inbound { from: self.node, msg: PreVerified::trusted(msg) });
                }
                Output::SetTimer { token, after } => {
                    self.wheel.arm(t + after, token);
                }
                Output::Commit(c) => {
                    // Commit-time availability audit: one `BatchCommitted`
                    // record per ref, carrying whether this node's store
                    // resolved it. The committed-batch-availability
                    // invariant fails the run on any `resolved: false` —
                    // an honest node committed data it cannot materialise.
                    let plane = &self.dissem;
                    let height = c.block.height().0;
                    let refs = c.block.payload().batch_refs().unwrap_or(&[]);
                    for r in refs {
                        let resolved = plane.store.contains(&r.digest);
                        self.sink.record(TraceRecord {
                            at: t,
                            event: TraceEvent::BatchCommitted {
                                node: self.node,
                                batch: r.digest,
                                resolved,
                            },
                        });
                        plane.store.mark_committed(r.digest, height);
                    }
                    // Every block, empty ones too: a commit is also what
                    // hands an orphaned proposal's refs back to the pool.
                    plane.pool.committed(c.block.id(), height, refs);
                    // Committed batches only need to stick around long
                    // enough for report-time tx accounting and for lagging
                    // peers to fetch them; after the retention window they
                    // are dead weight the byte-budget eviction would
                    // otherwise churn through.
                    plane.store.prune_committed(height.saturating_sub(DISSEM_RETAIN_BLOCKS));
                    if let Some((tx, _)) = &self.ledger_writer {
                        let _ = tx.send(c.block.clone());
                    }
                    self.committed_height.store(c.block.height().0, Ordering::Relaxed);
                    self.last_commit_at_us = t.0;
                    let s = &self.state.status;
                    s.committed_height.store(c.block.height().0, Ordering::Relaxed);
                    s.last_commit_at_us.store(t.0, Ordering::Relaxed);
                    self.commits.push(c);
                    s.committed_blocks.store(self.commits.len() as u64, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_mempool::{batch_digest, MempoolConfig};
    use moonshot_telemetry::RingBufferSink;
    use moonshot_types::BatchRef;

    /// A handled message: its tag, and what the proposable pool would have
    /// offered a leader at that instant.
    type Handled = (&'static str, Vec<BatchRef>);

    /// A protocol double that notes every message it is handed.
    struct Recorder {
        plane: Arc<DissemPlane>,
        handled: Arc<Mutex<Vec<Handled>>>,
    }

    impl ConsensusProtocol for Recorder {
        fn start(&mut self, _: SimTime) -> Vec<Output> {
            Vec::new()
        }
        fn handle_message(&mut self, _: NodeId, msg: Message, _: SimTime) -> Vec<Output> {
            let offer = self.plane.pool.proposable(usize::MAX);
            self.handled.lock().unwrap().push((msg.tag(), offer));
            Vec::new()
        }
        fn handle_timer(&mut self, _: TimerToken, _: SimTime) -> Vec<Output> {
            Vec::new()
        }
        fn current_view(&self) -> View {
            View(1)
        }
        fn name(&self) -> &'static str {
            "recorder"
        }
    }

    /// A peer's push reaches the batch store on a shard thread and does not
    /// wake the driver; what the driver finds in the store when a message
    /// wakes it must be in the pool *before* that message is dispatched,
    /// or the proposal the message triggers leaves the batch behind for a
    /// whole period. Likewise a gated block whose missing batch arrived
    /// during the wait goes to the protocol ahead of the message that ended
    /// the wait, not after it. (The driver's own 50 ms tick would take the
    /// arrival in as well: it has microseconds to fall between the insert
    /// and the inject, and then the test passes for the wrong reason.)
    #[test]
    fn a_waking_driver_takes_in_batch_arrivals_before_it_dispatches() {
        let plane = DissemPlane::new(1 << 20);
        let handled = Arc::new(Mutex::new(Vec::new()));
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let mut cfg = TransportConfig::new(NodeId(0), addr, vec![(NodeId(0), addr)]);
        cfg.dissem = plane.clone();
        let epoch = Instant::now();
        let recorder = Recorder { plane: plane.clone(), handled: handled.clone() };
        let node = NodeHandle::start(
            |_| Box::new(recorder),
            SimDuration::from_millis(50),
            cfg,
            None,
            None,
            epoch,
            Arc::new(Mutex::new(RingBufferSink::new(1024))),
            IntrospectState::new(NodeId(0), epoch),
        )
        .expect("start");
        // What the sigverify stage does with a message that checked out.
        let inject = |msg: Message| {
            let _ = node.inbound.send(Inbound { from: NodeId(1), msg: PreVerified::trusted(msg) });
        };
        let batch_ref = |tag: u8| BatchRef { digest: batch_digest(&[tag; 64]), bytes: 64 };
        // What a shard thread does with a verified `BatchPush`.
        let arrive = |tag: u8| {
            assert!(plane.store.insert(batch_ref(tag).digest, vec![tag; 64].into()));
        };
        let wake = || inject(Message::BlockRequest { block_id: Block::genesis().id() });
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let handled_len = || handled.lock().unwrap().len();

        // A batch arrives while the driver is blocked (a driver still
        // starting up would take it in on its way to the first wait); the
        // next message finds it on offer.
        std::thread::sleep(Duration::from_millis(20));
        arrive(1);
        wake();
        wait_for("the message", &|| handled_len() == 1);
        assert_eq!(handled.lock().unwrap()[0], ("block-request", vec![batch_ref(1)]));

        // A synced block naming a batch this node lacks is gated; the batch
        // arrives, and the wake-up delivers the block first.
        let payload = Payload::batches(vec![batch_ref(2)]);
        let block = Block::build(View(1), NodeId(1), &Block::genesis(), payload);
        inject(Message::BlockResponse { block });
        wait_for("the gate", &|| plane.counters.stats().votes_gated == 1);
        assert_eq!(handled_len(), 1, "a block with an unresolved ref was delivered");
        arrive(2);
        wake();
        wait_for("both messages", &|| handled_len() == 3);
        let tags: Vec<&str> = handled.lock().unwrap().iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, ["block-request", "block-response", "block-request"]);
        node.stop();
    }

    /// Admission feedback follows the batches a node *sealed*, not the
    /// blocks it proposed: with the shared pool most of a node's batches
    /// commit in other leaders' blocks, next to other nodes' batches. A
    /// node that never leads must still measure its own drain rate — from
    /// its own transactions only.
    #[test]
    fn a_node_that_never_leads_still_measures_its_drain_rate() {
        let pool = Mempool::new(MempoolConfig::default());
        let sealed_here = |tag: u8, txs: u8| {
            let digest = Digest::hash(&[tag]);
            let tx_digests: Vec<Digest> = (0..txs).map(|i| Digest::hash(&[tag, i])).collect();
            pool.pin_batch(digest, &tx_digests);
            BatchRef { digest, bytes: txs as u64 * (180 + BATCH_TX_OVERHEAD as u64) }
        };
        let (first, second) = (sealed_here(1, 10), sealed_here(2, 20));
        let foreign = BatchRef { digest: Digest::hash(&[9]), bytes: 1 << 20 };
        // Node 3 proposes both blocks; this node is not node 3.
        let b1 = Block::build(View(1), NodeId(3), &Block::genesis(), Payload::batches(vec![first]));
        let b2 = Block::build(View(2), NodeId(3), &b1, Payload::batches(vec![foreign, second]));

        feed_commit(&pool, &b1, Some(5_000), 1_000_000);
        assert_eq!(pool.drain_txs_per_sec(), 0, "the first commit only opens the window");
        feed_commit(&pool, &b2, Some(5_000), 1_100_000);
        // 20 own transactions of 180 B in 100 ms; the foreign megabyte is
        // not this pool's drain.
        assert_eq!(pool.drain_txs_per_sec(), 200);
        assert_eq!(pool.drain_bytes_per_sec(), 36_000);
        assert_eq!(pool.in_flight_batches(), 0, "committed batches are unpinned");
        // A block with nothing of ours leaves the rate alone.
        let b3 = Block::build(View(3), NodeId(3), &b2, Payload::batches(vec![foreign]));
        feed_commit(&pool, &b3, Some(5_000), 1_200_000);
        assert_eq!(pool.drain_txs_per_sec(), 200);
    }
}
