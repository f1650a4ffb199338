//! In-process localhost clusters: N real nodes, real TCP, one shared epoch.
//!
//! Used by the repo benchmark (`benchmark/`) and the integration tests;
//! no binary wraps it. Every node gets a bounded in-memory trace ring; on
//! shutdown the rings are merged, sorted by timestamp, and handed to the
//! same trace-driven invariant checker the simulator uses — safety
//! violations in a real cluster run fail exactly like simulated ones.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use moonshot_crypto::keys::quorum_threshold;
use moonshot_mempool::{batch_txs, tx_client_id, tx_timestamp_us, DissemPlane, Mempool, MempoolConfig};
use moonshot_telemetry::{
    InvariantSummary, MetricsFold, QuorumCommit, RingBufferSink, RunMetrics, TraceEvent,
    TraceRecord, TraceSink, Violation,
};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{BlockId, NodeId, Payload};

use crate::config::ProtocolChoice;
use crate::runtime::{NodeHandle, NodeReport, SharedSink};
use crate::netpool::NetPool;
use crate::shape::ShapeMatrix;
use crate::transport::{TransportConfig, DISSEM_STORE_BUDGET};

/// Parameters for a localhost cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of validators.
    pub n: usize,
    /// Protocol every node runs.
    pub protocol: ProtocolChoice,
    /// The Δ used to derive view-timer lengths.
    pub delta: SimDuration,
    /// Per-node trace ring capacity (records).
    pub trace_capacity: usize,
    /// When set, each node gets a data path: a mempool (fed through
    /// [`Cluster::mempools`] or `SubmitTx` frames) the node seals into
    /// its dissemination plane. The cluster generates no load of its own.
    /// `None` is a consensus-only cluster: every block is empty.
    pub load: Option<LoadSpec>,
    /// When set, every node gets a durable ledger under
    /// `<data_dir>/node-<id>/`: an fsync'd consensus WAL (votes/timeouts
    /// persist before they hit the wire), an append-only blockstore of
    /// committed blocks, and periodic snapshots. A restarted node recovers
    /// its safety state and committed chain from disk and fetches only the
    /// tail from peers.
    pub data_dir: Option<std::path::PathBuf>,
    /// Fault-injection knob: every *other* node skips this
    /// peer when broadcasting `BatchPush` frames, so the victim can only
    /// resolve proposal refs through the `BatchRequest` fetch path. The
    /// victim itself still pushes its own batches normally.
    pub drop_push_to: Option<NodeId>,
    /// Per-link latency/bandwidth matrix enforced sender-side by the
    /// shared network pool (see [`ShapeMatrix::table2`] for the WAN the
    /// benchmark's shaped workloads use). `None` = raw loopback.
    pub shape: Option<Arc<ShapeMatrix>>,
}

/// A node's data path: how the node batches and what the mempool admits.
/// Where the transactions come from is the caller's business.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Base batch byte target — the knob that plays the role of the
    /// paper's payload-size axis once payloads are real. The sealer grows
    /// batches up to [`MAX_GROWTH`](moonshot_mempool::seal::MAX_GROWTH)×
    /// this under backlog.
    pub batch_bytes: usize,
    /// Per-node mempool configuration (admission budgets, delay target,
    /// fairness quantum).
    pub mempool: MempoolConfig,
}

impl LoadSpec {
    /// A data path with paper-shaped defaults: `batch_bytes` base target,
    /// delay-bounded admission on. (Named for the digest-only proposals
    /// every loaded node makes: batch bytes travel on the push/fetch
    /// plane, blocks carry 40-byte refs.)
    pub fn digest(batch_bytes: usize) -> LoadSpec {
        LoadSpec { batch_bytes, mempool: MempoolConfig::default() }
    }

    /// Returns the spec unchanged. A cluster spawns no load generators,
    /// so there are none to remove; kept only because the benchmark
    /// still calls it.
    pub fn without_clients(self) -> LoadSpec {
        self
    }

    /// One node's data path under this spec: its mempool and its
    /// dissemination plane, which outlive the node's incarnations. Hand
    /// both to its [`TransportConfig`], the pool with
    /// [`batch_bytes`](LoadSpec::batch_bytes); the node seals the one
    /// into the other.
    pub fn data_path(&self) -> (Arc<Mempool>, Arc<DissemPlane>) {
        (Arc::new(Mempool::new(self.mempool)), DissemPlane::new(DISSEM_STORE_BUDGET))
    }
}

impl ClusterSpec {
    /// A spec with bench defaults: Δ = 50 ms, no load, 64 Ki-record trace
    /// rings.
    pub fn new(n: usize, protocol: ProtocolChoice) -> Self {
        ClusterSpec {
            n,
            protocol,
            delta: SimDuration::from_millis(50),
            trace_capacity: 64 * 1024,
            load: None,
            data_dir: None,
            drop_push_to: None,
            shape: None,
        }
    }
}


/// A running localhost cluster.
#[derive(Debug)]
pub struct Cluster {
    spec: ClusterSpec,
    peers: Vec<(NodeId, SocketAddr)>,
    /// `None` while a node is killed.
    handles: Vec<Option<NodeHandle>>,
    /// One ring per node, kept across that node's restarts.
    sinks: Vec<Arc<Mutex<RingBufferSink>>>,
    /// Reports of stopped incarnations (kill-and-restart runs).
    dead_reports: Vec<NodeReport>,
    /// One mempool per node (empty without a [`LoadSpec`]). Kept across
    /// restarts: pending transactions survive a
    /// node's crash because admission lives outside the node.
    pools: Vec<Arc<Mempool>>,
    /// One dissemination plane per node, paired with `pools`. Kept across
    /// restarts like the pools: a restarted node keeps
    /// its batch store, so it only owes the network what it truly missed.
    planes: Vec<Arc<DissemPlane>>,
    /// One entry per completed [`Cluster::restart`] (ledger clusters only):
    /// how much catch-up the restarted node actually owed the network.
    restarts: Vec<RestartStat>,
    /// The one network pool every node in the process shares: `O(cores)`
    /// event-loop threads total, which also step the nodes, not `O(n)`. Restarted nodes
    /// re-attach to it; [`Cluster::stop`] shuts it down last.
    net: Arc<NetPool>,
}

/// Catch-up accounting for one node restart.
#[derive(Clone, Copy, Debug)]
pub struct RestartStat {
    /// The restarted node.
    pub node: NodeId,
    /// Committed height recovered from the node's own disk at restart.
    pub recovered_height: u64,
    /// The cluster's quorum committed height at the restart moment.
    pub cluster_height: u64,
    /// Blocks the node had to fetch from peers to catch up to the cluster:
    /// `cluster_height - recovered_height`. Without a ledger this is the
    /// whole chain; with one it is bounded by the blocks committed while
    /// the node was down.
    pub resync_blocks: u64,
}

impl Cluster {
    /// Binds `n` port-0 listeners on localhost, then starts every node with
    /// the full peer table.
    pub fn launch(spec: ClusterSpec) -> std::io::Result<Cluster> {
        assert!(spec.n >= 1, "cluster needs at least one node");
        // One pool for the whole process: n nodes share `O(cores)` network
        // threads instead of spawning `O(n)` apiece, which is what lets a
        // 50–200 node cluster fit one box.
        let net = NetPool::new();
        let mut listeners = Vec::new();
        let mut peers = Vec::new();
        for i in 0..spec.n {
            let l = TcpListener::bind("127.0.0.1:0")?;
            peers.push((NodeId(i as u16), l.local_addr()?));
            listeners.push(l);
        }
        let sinks: Vec<Arc<Mutex<RingBufferSink>>> = (0..spec.n)
            .map(|_| Arc::new(Mutex::new(RingBufferSink::new(spec.trace_capacity))))
            .collect();

        let (mut pools, mut planes) = (Vec::new(), Vec::new());
        if let Some(load) = &spec.load {
            for _ in 0..spec.n {
                let (pool, plane) = load.data_path();
                pools.push(pool);
                planes.push(plane);
            }
        }
        let mut cluster = Cluster {
            handles: (0..spec.n).map(|_| None).collect(),
            spec,
            peers,
            sinks,
            dead_reports: Vec::new(),
            pools,
            planes,
            restarts: Vec::new(),
            net,
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            cluster.handles[i] = Some(cluster.start_node(NodeId(i as u16), listener)?);
        }
        Ok(cluster)
    }

    /// The shared network pool (shard and wake-up counters).
    pub fn netpool(&self) -> &Arc<NetPool> {
        &self.net
    }

    /// The shared time origin: its pool's [`epoch`](NetPool::epoch).
    pub fn epoch(&self) -> Instant {
        self.net.epoch()
    }

    /// `(id, addr)` of every validator.
    pub fn peers(&self) -> &[(NodeId, SocketAddr)] {
        &self.peers
    }

    /// Per-node mempool handles (empty without a [`LoadSpec`]). Tests and
    /// external clients submit transactions through these.
    pub fn mempools(&self) -> &[Arc<Mempool>] {
        &self.pools
    }

    /// Highest committed height per live node (killed nodes report 0).
    pub fn committed_heights(&self) -> Vec<u64> {
        self.handles
            .iter()
            .map(|h| h.as_ref().map(|h| h.committed_height()).unwrap_or(0))
            .collect()
    }

    /// The height at least a quorum ([`quorum_threshold`]) of nodes have
    /// committed.
    pub fn quorum_committed_height(&self) -> u64 {
        let mut heights = self.committed_heights();
        heights.sort_unstable_by(|a, b| b.cmp(a));
        heights.get(quorum_threshold(self.spec.n) - 1).copied().unwrap_or(0)
    }

    /// Stops node `id` (its sockets close; peers start redialing). The
    /// stopped incarnation's report is kept for the final
    /// [`ClusterReport`].
    pub fn kill(&mut self, id: NodeId) {
        if let Some(handle) = self.handles[id.0 as usize].take() {
            self.dead_reports.push(handle.stop());
        }
    }

    /// Restarts a killed node with a fresh state machine on its original
    /// address, recording a `NodeRestarted` trace event so the invariant
    /// checker resets that node's monotonicity baselines.
    pub fn restart(&mut self, id: NodeId) -> std::io::Result<()> {
        let idx = id.0 as usize;
        assert!(self.handles[idx].is_none(), "restart of a live node");
        let at = SimTime(self.epoch().elapsed().as_micros() as u64);
        self.sinks[idx]
            .lock()
            .unwrap()
            .record(TraceRecord { at, event: TraceEvent::NodeRestarted { node: id } });
        let cluster_height = self.quorum_committed_height();
        // The node's mempool and batch store outlived the crash; the fresh
        // incarnation seals what is pending and proposes the batches the
        // old one pushed. With a ledger, the WAL floors make re-voting in old
        // views impossible, the blockstore gives the node back its
        // committed chain, and only the tail is owed to the network.
        let handle = self.start_node(id, TcpListener::bind(self.peers[idx].1)?)?;
        if self.spec.data_dir.is_some() {
            let recovered_height = handle.recovered_height();
            self.restarts.push(RestartStat {
                node: id,
                recovered_height,
                cluster_height,
                resync_blocks: cluster_height.saturating_sub(recovered_height),
            });
        }
        self.handles[idx] = Some(handle);
        Ok(())
    }

    /// Starts (or restarts) node `id`: the spec's knobs and the cluster's
    /// shared pieces go into a [`TransportConfig`], and
    /// [`NodeHandle::start`] does the rest.
    fn start_node(&self, id: NodeId, listener: TcpListener) -> std::io::Result<NodeHandle> {
        let (spec, idx) = (&self.spec, id.0 as usize);
        let mut transport = TransportConfig::new(id, self.peers.clone(), self.net.clone());
        transport.shape = spec.shape.clone();
        if let Some(((pool, plane), load)) =
            self.pools.get(idx).zip(self.planes.get(idx)).zip(spec.load.as_ref())
        {
            transport.mempool = Some((pool.clone(), load.batch_bytes));
            transport.dissem = plane.clone();
        }
        // The victim never drops its *own* pushes — the fault is everyone
        // else starving it, not it starving the cluster.
        transport.drop_batch_push_to = spec.drop_push_to.filter(|&victim| victim != id);
        let protocol = spec.protocol;
        NodeHandle::start(
            move |cfg| protocol.build(cfg),
            spec.delta,
            transport,
            listener,
            spec.data_dir.as_deref(),
            self.sinks[idx].clone() as SharedSink,
        )
    }

    /// Waits, for at most `timeout`, until every node has seen everything
    /// it accepted commit: all mempools empty and no sealed batch still
    /// pinned. Returns whether it came to that. Stop every client first:
    /// a pool still being fed never empties. (A killed node's pool never
    /// drains.)
    pub fn drain(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.pools.iter().any(|p| !p.is_empty() || p.in_flight_batches() > 0) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Stops every node and collects reports plus the merged, time-sorted
    /// trace. The caller stops its clients first (no new submissions).
    pub fn stop(mut self) -> ClusterReport {
        let mut reports = std::mem::take(&mut self.dead_reports);
        // Every node is halted, and its report, net counters included, read
        // before any socket closes: a node closing first would fail its
        // peers' links to it, and the frames their shapers still held would
        // count as dropped, and their redials as reconnects, against a
        // clean run.
        let handles: Vec<NodeHandle> = self.handles.drain(..).flatten().collect();
        reports.extend(handles.iter().map(NodeHandle::halt));
        for handle in handles {
            handle.detach();
        }
        // Every node has detached; the shared pool's threads go last.
        self.net.shutdown();
        // The shard loops, the one submitter inside the cluster, are
        // joined, so the admission counters are final: every attempt must
        // be accounted for exactly once.
        for (i, pool) in self.pools.iter().enumerate() {
            let c = pool.counters();
            assert_eq!(
                c.accepted + c.rejected + c.deduped,
                c.submitted,
                "node {i}: mempool counter identity violated: {c:?}"
            );
        }
        reports.sort_by_key(|r| r.node);
        let mut records: Vec<TraceRecord> = Vec::new();
        let mut evicted: Vec<u64> = Vec::new();
        for sink in &self.sinks {
            let ring = sink.lock().unwrap();
            evicted.push(ring.evicted());
            records.extend(ring.iter().cloned());
        }
        // Ring overflow is lost observability, not lost consensus — but an
        // analysis over a clipped trace must be able to see the clip.
        for report in &mut reports {
            let dropped = evicted.get(report.node.0 as usize).copied().unwrap_or(0);
            report.metrics.set_counter("telemetry.dropped_events", dropped);
        }
        records.sort_by_key(|r| r.at);
        // The union of every node's batch store is the report's digest →
        // bytes directory. Committed blocks carry only
        // refs; tx accounting resolves them here.
        let mut batch_bytes: HashMap<moonshot_crypto::Digest, Arc<[u8]>> = HashMap::new();
        for plane in &self.planes {
            for (d, b) in plane.store.snapshot() {
                batch_bytes.entry(d).or_insert(b);
            }
        }
        ClusterReport {
            n: self.spec.n,
            elapsed: self.epoch().elapsed(),
            reports,
            records,
            restarts: std::mem::take(&mut self.restarts),
            batch_bytes,
        }
    }
}

/// Everything a finished cluster run produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Validator count.
    pub n: usize,
    /// Wall-clock time from epoch to stop.
    pub elapsed: std::time::Duration,
    /// Final (and any killed-incarnation) node reports, sorted by node.
    pub reports: Vec<NodeReport>,
    /// Merged trace, sorted by timestamp.
    pub records: Vec<TraceRecord>,
    /// Catch-up accounting for every node restart (ledger clusters only).
    pub restarts: Vec<RestartStat>,
    /// Digest → framed batch bytes, unioned over every node's batch store
    /// at stop time. Committed payloads carry only refs; tx accounting
    /// resolves them here.
    pub batch_bytes: HashMap<moonshot_crypto::Digest, Arc<[u8]>>,
}

impl ClusterReport {
    /// Runs the trace-driven safety checker over the merged trace.
    pub fn check_invariants(&self) -> Result<InvariantSummary, Vec<Violation>> {
        moonshot_telemetry::check_invariants(self.records.iter().cloned())
    }

    /// The paper's §VI numbers for this run: the merged trace folded by
    /// [`MetricsFold`], as the simulator folds its own, at the certificate
    /// quorum ([`quorum_threshold`]: `2f + 1` at `n = 3f + 1`, 34 of 50)
    /// over [`elapsed`](ClusterReport::elapsed). A block counts once its
    /// quorum-th node committed it; `committed_payload_bytes` sums the
    /// payload sizes its `ProposalSent` records carry.
    pub fn metrics(&self) -> RunMetrics {
        let elapsed = SimDuration::from_micros(self.elapsed.as_micros() as u64);
        self.fold().summarise(quorum_threshold(self.n), elapsed)
    }

    /// The merged trace through [`MetricsFold`], the one place this report
    /// learns when a block was created and when it was committed.
    fn fold(&self) -> MetricsFold {
        let mut fold = MetricsFold::new();
        for rec in &self.records {
            fold.record(*rec);
        }
        fold
    }

    /// The blocks a quorum committed, with their creation and quorum
    /// commit times.
    fn quorum_commits(&self) -> Vec<QuorumCommit> {
        self.fold().quorum_commits(quorum_threshold(self.n)).collect()
    }

    /// Commit latencies in microseconds, sorted ascending: one sample per
    /// quorum-committed block whose creation the trace holds, from its
    /// first `ProposalSent` to its commit by the quorum-th node — the
    /// samples behind [`metrics`](ClusterReport::metrics)' `commit_latency`.
    pub fn commit_latencies_us(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .quorum_commits()
            .iter()
            .filter_map(|c| c.created.map(|(at, _)| c.committed_at.since(at).as_micros()))
            .collect();
        out.sort_unstable();
        out
    }

    /// Every quorum-committed block's payload with its [`QuorumCommit`]
    /// (creation and quorum commit time). Payload bytes come from the node
    /// reports (the trace stores only block ids); a block is skipped if no
    /// surviving report carries it, which only happens when commits outrun
    /// the trace-ring capacity.
    fn quorum_committed_payloads(&self) -> Vec<(&Payload, QuorumCommit)> {
        let mut payloads: HashMap<BlockId, &Payload> = HashMap::new();
        for report in &self.reports {
            for c in &report.commits {
                payloads.entry(c.block.id()).or_insert_with(|| c.block.payload());
            }
        }
        self.quorum_commits()
            .into_iter()
            .filter_map(|c| payloads.get(&c.block).map(|p| (*p, c)))
            .collect()
    }

    /// The framed batches a committed payload carries, each with the
    /// digest its `BatchSealed` stage record was keyed by: every ref
    /// resolved through [`batch_bytes`](ClusterReport::batch_bytes) (refs
    /// whose bytes were evicted everywhere are skipped — the availability
    /// invariant, not the report, polices that).
    fn payload_batches<'a>(
        &'a self,
        payload: &'a Payload,
    ) -> impl Iterator<Item = (moonshot_crypto::Digest, &'a Arc<[u8]>)> {
        let refs = payload.batch_refs().unwrap_or(&[]);
        refs.iter().filter_map(|r| self.batch_bytes.get(&r.digest).map(|b| (r.digest, b)))
    }

    /// Every transaction in a quorum-committed payload, with its block's
    /// quorum commit time — the one walk the four tx accessors below share.
    fn committed_txs(&self) -> impl Iterator<Item = (&[u8], SimTime)> + '_ {
        self.quorum_committed_payloads().into_iter().flat_map(move |(payload, commit)| {
            self.payload_batches(payload).flat_map(move |(_, bytes)| {
                batch_txs(bytes).map(move |tx| (tx, commit.committed_at))
            })
        })
    }

    /// Transactions inside quorum-committed payloads (0 for a
    /// consensus-only run: there is nothing to count).
    pub fn txs_committed(&self) -> u64 {
        self.committed_txs().count() as u64
    }

    /// Transactions that appear more than once across all quorum-committed
    /// payloads (each extra occurrence counts once). Exactly-once delivery
    /// — the mempool's dedup window plus sealed-batch pinning — means this
    /// must be 0: a duplicate here is a transaction charged to a client
    /// twice.
    pub fn duplicate_committed_txs(&self) -> u64 {
        let mut seen: std::collections::HashSet<&[u8]> = std::collections::HashSet::new();
        self.committed_txs().filter(|(tx, _)| !seen.insert(tx)).count() as u64
    }

    /// Submit→commit latency per committed transaction, in microseconds,
    /// sorted ascending. Every generated transaction embeds its submission
    /// time (µs since the cluster epoch) in its first 8 bytes; commit time
    /// is its block's commit by the quorum-th node, on the same clock (the
    /// benchmark's `tx_commit_*`). This is end-to-end client latency —
    /// queueing in the mempool and the staged batch included — not just
    /// the block's commit latency.
    pub fn tx_latencies_us(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .committed_txs()
            .filter_map(|(tx, at)| tx_timestamp_us(tx).map(|ts| at.0.saturating_sub(ts)))
            .collect();
        out.sort_unstable();
        out
    }

    /// [`tx_latencies_us`](ClusterReport::tx_latencies_us) split by the
    /// client id embedded in each transaction — the fairness lens: under
    /// mixed load, a paced client's distribution must stay flat while the
    /// saturating client's absorbs the queueing. Each vector is sorted
    /// ascending. Transactions without a parseable client id are skipped.
    pub fn tx_latencies_by_client_us(&self) -> std::collections::BTreeMap<u32, Vec<u64>> {
        let mut out: std::collections::BTreeMap<u32, Vec<u64>> =
            std::collections::BTreeMap::new();
        for (tx, at) in self.committed_txs() {
            if let (Some(ts), Some(client)) = (tx_timestamp_us(tx), tx_client_id(tx)) {
                out.entry(client).or_default().push(at.0.saturating_sub(ts));
            }
        }
        for v in out.values_mut() {
            v.sort_unstable();
        }
        out
    }

    /// Per-transaction latency decomposition over the merged trace: one
    /// sample per committed transaction per stage, each vector sorted
    /// ascending. The stage boundaries are cross-node-correlated by block
    /// id and batch digest:
    ///
    /// * `mempool_queue` — client submit → batch seal,
    /// * `propose_wait` — batch seal → the block's creation (its first
    ///   `ProposalSent`),
    /// * `vote_to_qc` — creation → the first `QcFormed` for the block,
    /// * `qc_to_commit` — certificate → the block's commit by the
    ///   quorum-th node.
    ///
    /// Creation and commit are [`MetricsFold`]'s. All four timestamps and
    /// the submit stamp share the cluster epoch, so a transaction's four
    /// components sum to its end-to-end
    /// [`tx_latencies_us`](ClusterReport::tx_latencies_us) entry exactly
    /// (modulo `saturating_sub` clamping on out-of-order stamps).
    /// Transactions missing any stage timestamp are skipped whole, never
    /// partially counted.
    pub fn stage_latencies(&self) -> StageLatencies {
        let mut sealed_at: HashMap<BlockId, u64> = HashMap::new();
        let mut qc_at: HashMap<BlockId, u64> = HashMap::new();
        for rec in &self.records {
            match rec.event {
                TraceEvent::BatchSealed { batch, .. } => {
                    sealed_at.entry(batch).or_insert(rec.at.0);
                }
                TraceEvent::QcFormed { block, .. } => {
                    qc_at.entry(block).or_insert(rec.at.0);
                }
                _ => {}
            }
        }
        let mut out = StageLatencies::default();
        for (payload, commit) in self.quorum_committed_payloads() {
            let Some((SimTime(proposed), _)) = commit.created else { continue };
            let Some(&qc) = qc_at.get(&commit.block) else { continue };
            // A block carries several batches sealed at different
            // times; each contributes its own seal stamp, while the
            // proposal/QC/commit stamps are per block.
            for (digest, bytes) in self.payload_batches(payload) {
                let Some(&sealed) = sealed_at.get(&digest) else { continue };
                for tx in batch_txs(bytes) {
                    let Some(ts) = tx_timestamp_us(tx) else { continue };
                    out.mempool_queue.push(sealed.saturating_sub(ts));
                    out.propose_wait.push(proposed.saturating_sub(sealed));
                    out.vote_to_qc.push(qc.saturating_sub(proposed));
                    out.qc_to_commit.push(commit.committed_at.0.saturating_sub(qc));
                }
            }
        }
        out.mempool_queue.sort_unstable();
        out.propose_wait.sort_unstable();
        out.vote_to_qc.sort_unstable();
        out.qc_to_commit.sort_unstable();
        out
    }
}

/// Per-stage transaction latency samples (µs, sorted ascending) — see
/// [`ClusterReport::stage_latencies`].
#[derive(Clone, Debug, Default)]
pub struct StageLatencies {
    /// Client submit → batch seal.
    pub mempool_queue: Vec<u64>,
    /// Batch seal → the creation of the block carrying the batch.
    pub propose_wait: Vec<u64>,
    /// Creation → first quorum certificate for the block.
    pub vote_to_qc: Vec<u64>,
    /// Quorum certificate → the block's commit by the quorum-th node.
    pub qc_to_commit: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheapest end-to-end sanity check: one node cannot commit (no
    /// quorum without peers in a 4-node config), but a full 4-node cluster
    /// must make progress over real sockets.
    #[test]
    fn four_node_pipelined_cluster_commits() {
        let cluster =
            Cluster::launch(ClusterSpec::new(4, ProtocolChoice::Pipelined)).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while cluster.quorum_committed_height() < 5 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let height = cluster.quorum_committed_height();
        let report = cluster.stop();
        assert!(height >= 5, "cluster only reached quorum height {height}");
        let summary = report.check_invariants().expect("no safety violations");
        assert!(summary.commits > 0);
        assert!(report.metrics().committed_blocks >= 5);
        assert!(!report.commit_latencies_us().is_empty());
        for r in &report.reports {
            assert_eq!(r.metrics.counter("telemetry.dropped_events"), 0);
        }
    }

    /// The stall watchdog, the one snapshot a wedged node leaves behind: it
    /// stays silent while the cluster commits, and once half the cluster is
    /// killed every survivor records a `Stall` within 1 s (at Δ = 10 ms the
    /// threshold is 40 Δ) naming a view no older than the one it was in at
    /// the kill and the height it had committed.
    #[test]
    fn survivors_of_a_lost_quorum_record_a_stall() {
        use moonshot_types::View;

        let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
        spec.delta = SimDuration::from_millis(10);
        let mut cluster = Cluster::launch(spec).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while cluster.quorum_committed_height() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let records = |cluster: &Cluster, i: usize| -> Vec<TraceRecord> {
            cluster.sinks[i].lock().unwrap().iter().cloned().collect()
        };
        let stalls = |records: &[TraceRecord]| -> Vec<(View, u64)> {
            let stall = |r: &TraceRecord| match r.event {
                TraceEvent::Stall { view, height, .. } => Some((view, height.0)),
                _ => None,
            };
            records.iter().filter_map(stall).collect()
        };
        for i in 0..4 {
            let early = stalls(&records(&cluster, i));
            assert!(early.is_empty(), "node {i} stalled while the cluster committed: {early:?}");
        }
        let height = cluster.quorum_committed_height();
        assert!(height >= 3, "cluster only reached quorum height {height}");

        cluster.kill(NodeId(2));
        cluster.kill(NodeId(3));
        let killed = Instant::now();
        let view_at_kill: Vec<View> = (0..2)
            .map(|i| {
                let entered = |r: &TraceRecord| match r.event {
                    TraceEvent::ViewEntered { view, .. } => Some(view),
                    _ => None,
                };
                records(&cluster, i).iter().filter_map(entered).max().unwrap_or(View::GENESIS)
            })
            .collect();
        for i in 0..2 {
            while stalls(&records(&cluster, i)).is_empty() {
                assert!(
                    killed.elapsed() < Duration::from_secs(1),
                    "node {i} recorded no stall within 1 s of losing its quorum"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let heights = cluster.committed_heights();
        for i in 0..2 {
            let (view, height) = stalls(&records(&cluster, i))[0];
            let before = view_at_kill[i];
            assert!(view >= before, "node {i} stalled in {view}, before {before}");
            assert_eq!(height, heights[i], "node {i}'s stall names another height");
        }
        let report = cluster.stop();
        report.check_invariants().expect("no safety violations");
    }

    /// A restarted node's watchdog counts from the restart: its clock is
    /// the cluster's, over a second old here, and counting from the epoch
    /// would record a `Stall` on its first step, long
    /// before it could commit anything (the threshold is 40 Δ = 400 ms).
    #[test]
    fn a_restarted_node_records_no_stall_before_it_could_commit() {
        let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
        spec.delta = SimDuration::from_millis(10);
        let launched = Instant::now();
        let mut cluster = Cluster::launch(spec).unwrap();
        while cluster.quorum_committed_height() < 3 || launched.elapsed() < Duration::from_secs(1)
        {
            assert!(launched.elapsed() < Duration::from_secs(20), "cluster never committed");
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster.kill(NodeId(3));
        cluster.restart(NodeId(3)).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let records: Vec<TraceRecord> = cluster.sinks[3].lock().unwrap().iter().cloned().collect();
        let restarted = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::NodeRestarted { .. }))
            .map(|r| r.at)
            .max()
            .expect("the restart is in node 3's ring");
        let stalls: Vec<SimTime> = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Stall { .. }) && r.at >= restarted)
            .map(|r| r.at)
            .collect();
        assert!(stalls.is_empty(), "restarted at {restarted:?}, stalled at {stalls:?}");
        let report = cluster.stop();
        report.check_invariants().expect("no safety violations");
    }

    /// A hand-built `n`-node report of one transaction, submitted at
    /// 1000 µs, sealed into a batch at 2000, proposed by node 0 at 2500 and
    /// certified at 3000, whose block each `(node, at)` of `commits` commits.
    fn one_tx_report(n: usize, commits: &[(u16, u64)]) -> ClusterReport {
        use moonshot_consensus::CommittedBlock;
        use moonshot_mempool::{batch_digest, encode_batch, make_tx, Tx};
        use moonshot_telemetry::MetricsRegistry;
        use moonshot_types::{Block, View};

        let tx = Tx::new(make_tx(1_000, 1, 0, 180));
        let bytes: Arc<[u8]> = encode_batch(&[tx]).into();
        let batch = batch_digest(&bytes);
        let payload = Payload::batches(vec![moonshot_types::BatchRef {
            digest: batch,
            bytes: bytes.len() as u64,
        }]);
        let block = Block::build(View(1), NodeId(0), &Block::genesis(), payload.clone());
        let (node, view, id, height) = (NodeId(0), View(1), block.id(), block.height());
        let mut records = vec![
            TraceRecord {
                at: SimTime(2_000),
                event: TraceEvent::BatchSealed { node, batch, txs: 1, bytes: payload.size() },
            },
            TraceRecord {
                at: SimTime(2_500),
                event: TraceEvent::ProposalSent {
                    node,
                    view,
                    block: id,
                    height,
                    bytes: payload.size(),
                },
            },
            TraceRecord { at: SimTime(3_000), event: TraceEvent::QcFormed { node, view, block: id } },
        ];
        for &(committer, at) in commits {
            records.push(TraceRecord {
                at: SimTime(at),
                event: TraceEvent::BlockCommitted {
                    node: NodeId(committer),
                    view,
                    block: id,
                    height,
                    direct: true,
                },
            });
        }
        ClusterReport {
            n,
            elapsed: std::time::Duration::from_secs(1),
            reports: vec![NodeReport {
                node,
                commits: vec![CommittedBlock { block, direct: true, commit_view: view }],
                final_view: view,
                metrics: MetricsRegistry::new(),
            }],
            records,
            restarts: Vec::new(),
            batch_bytes: [(batch, bytes)].into(),
        }
    }

    /// The stage decomposition on a hand-built trace with known delays:
    /// submit at 1000 µs, sealed at 2000, proposed at 2500, certified at
    /// 3000, committed at 3500. Each stage must come out exactly, and the
    /// four components must sum to the end-to-end latency.
    #[test]
    fn stage_latencies_decompose_known_delays() {
        let report = one_tx_report(1, &[(0, 3_500)]);

        assert_eq!(report.tx_latencies_us(), vec![2_500]);
        let stages = report.stage_latencies();
        assert_eq!(stages.mempool_queue, vec![1_000]);
        assert_eq!(stages.propose_wait, vec![500]);
        assert_eq!(stages.vote_to_qc, vec![500]);
        assert_eq!(stages.qc_to_commit, vec![500]);
        let sum = stages.mempool_queue[0]
            + stages.propose_wait[0]
            + stages.vote_to_qc[0]
            + stages.qc_to_commit[0];
        assert_eq!(sum, report.tx_latencies_us()[0], "components must sum to end-to-end");
    }

    /// A block is committed when its quorum-th node commits it, in every
    /// number the report derives, as in the simulator: at n = 4 the nodes
    /// commit at 3500, 3900, 4200 and 9000 µs, so the block counts once,
    /// with one latency sample of 4200 − 2500, and its transaction (and
    /// its last stage) ends at 4200, not at the first commit.
    #[test]
    fn a_block_commits_at_its_quorum_th_commit() {
        let report = one_tx_report(4, &[(0, 3_500), (1, 3_900), (2, 4_200), (3, 9_000)]);

        assert_eq!(report.commit_latencies_us(), vec![1_700]);
        assert_eq!(report.tx_latencies_us(), vec![4_200 - 1_000]);
        let stages = report.stage_latencies();
        assert_eq!(stages.qc_to_commit, vec![4_200 - 3_000]);
        let sum = stages.mempool_queue[0]
            + stages.propose_wait[0]
            + stages.vote_to_qc[0]
            + stages.qc_to_commit[0];
        assert_eq!(sum, report.tx_latencies_us()[0], "components must sum to end-to-end");
        assert_eq!(report.metrics().committed_blocks, 1);
    }

    /// A block counts as quorum-committed only once a certificate quorum of
    /// nodes committed it: at n = 50 that is ⌊(50 + 16)/2⌋ + 1 = 34, so a
    /// block 33 nodes committed does not count. The cluster's quorum is the
    /// keyring's for every n.
    #[test]
    fn quorum_committed_blocks_counts_a_certificate_quorum() {
        use moonshot_crypto::{Digest, Keyring};
        use moonshot_types::{Height, View};

        let commit = |block: Digest, node: usize| TraceRecord {
            at: SimTime(1_000),
            event: TraceEvent::BlockCommitted {
                node: NodeId::from_index(node),
                view: View(1),
                block,
                height: Height(1),
                direct: true,
            },
        };
        let (by_33, by_34) = (Digest::hash(b"by 33"), Digest::hash(b"by 34"));
        let records =
            (0..33).map(|i| commit(by_33, i)).chain((0..34).map(|i| commit(by_34, i))).collect();
        let report = ClusterReport {
            n: 50,
            elapsed: std::time::Duration::from_secs(1),
            reports: Vec::new(),
            records,
            restarts: Vec::new(),
            batch_bytes: Default::default(),
        };
        assert_eq!(report.metrics().committed_blocks, 1);
        for n in 1..=64 {
            assert_eq!(quorum_threshold(n), Keyring::simulated(n).quorum_threshold(), "n = {n}");
        }
    }

    /// The data path end to end, across the paper's Fig-8 payload axis:
    /// real transactions flow client → mempool → the node's sealer → push →
    /// refs in a block → commit at 1.8 kB, 18 kB and 180 kB base batches.
    /// Throughput must be nonzero and must not collapse along the axis
    /// (adjacent cells can swap places under the CPU contention of a
    /// parallel test run), and no safety invariant may break.
    ///
    /// Ignored: passes on its own, fails about every second run of this
    /// crate's suite in a debug build. A proposal names up to 256 batches
    /// and a node's sealer seals `DISSEM_BACKLOG_CAP` ahead, so a saturated
    /// block is megabytes where the full-payload path's was one batch;
    /// unoptimised SHA-256 over that, next to the other cluster tests,
    /// misses the 30 s window or falls below the 0.8 floor at the large
    /// cells. Scenario and bounds are kept as they were; ROADMAP
    /// "Sealed-ahead cap" owns it (`cargo test -- --ignored` runs it).
    #[test]
    #[ignore = "flaky in the debug suite until the sealed-ahead cap is bounded (ROADMAP)"]
    fn payload_sweep_commits_real_txs_with_monotone_throughput() {
        use crate::client::{ClientTarget, TxClient, TxClientConfig};

        let mut throughputs = Vec::new();
        for batch_bytes in [1_800usize, 18_000, 180_000] {
            let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
            spec.load = Some(LoadSpec::digest(batch_bytes));
            let cluster = Cluster::launch(spec).unwrap();
            let client = TxClient::start(
                TxClientConfig { client_id: 0, tx_bytes: 180, txs_per_sec: 0 },
                ClientTarget::InProcess(cluster.mempools().to_vec()),
                cluster.epoch(),
            );
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            // Height alone is a bad stop signal on a fast machine: view 8
            // can arrive before the nodes' sealers have sealed a single 180 kB
            // batch, leaving only empty blocks committed. Run each cell
            // for a minimum window so throughput measures steady state.
            let min_run = Instant::now() + std::time::Duration::from_secs(5);
            while (cluster.quorum_committed_height() < 8 || Instant::now() < min_run)
                && Instant::now() < deadline
            {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            let stats = client.stop();
            let report = cluster.stop();
            report.check_invariants().expect("no safety violations");

            let bytes = report.metrics().committed_payload_bytes;
            let throughput = bytes as f64 / report.elapsed.as_secs_f64();
            assert!(throughput > 0.0, "{batch_bytes}B: zero throughput");
            assert!(report.txs_committed() > 0, "{batch_bytes}B: no txs committed");
            let latencies = report.tx_latencies_us();
            assert!(!latencies.is_empty(), "{batch_bytes}B: no tx latencies");
            // The stage decomposition covers the same transactions: one
            // sample per stage per committed tx, each chain summing to the
            // end-to-end latency.
            let stages = report.stage_latencies();
            assert!(!stages.mempool_queue.is_empty(), "{batch_bytes}B: no stage samples");
            assert!(
                stages.mempool_queue.len() <= latencies.len(),
                "{batch_bytes}B: more stage chains than committed txs"
            );
            assert!(stats.submitted > 0);
            assert_eq!(stats.accepted + stats.rejected, stats.submitted);
            // Exactly-once: the dedup window plus sealed-batch pinning must
            // keep any retried transaction out of a second committed batch.
            assert_eq!(report.duplicate_committed_txs(), 0, "{batch_bytes}B: tx committed twice");
            for r in &report.reports {
                assert!(r.metrics.counter("mempool.accepted") > 0, "node {}: idle mempool", r.node);
            }
            throughputs.push(throughput);
        }
        // Adaptive batching lets the 1.8 kB cell reach the same drain
        // ceiling as the big-batch cells, so the axis is a plateau, not a
        // slope; assert no collapse (the bufferbloat regime ran small
        // batches at ~35% of ceiling) rather than strict growth.
        assert!(
            throughputs[2] > throughputs[0] * 0.8,
            "180 kB batches collapsed vs 1.8 kB ones: {throughputs:?}"
        );
    }

    /// Dissemination end to end, with a starved voter: node 3 never
    /// receives a `BatchPush` (every peer drops pushes to it), so the
    /// *only* way it can vote on proposals is the gate → fetch →
    /// `BatchResponse` path. The cluster must still commit real
    /// transactions; the committed-batch availability invariant must hold
    /// at every node (including the starved one); the push, gate, and
    /// fetch counters must all show the machinery actually ran; and no
    /// transaction may commit twice.
    #[test]
    fn digest_cluster_commits_with_fetch_covering_dropped_pushes() {
        use crate::client::{ClientTarget, TxClient, TxClientConfig};

        let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
        // Paced, not saturating: gate → fetch → serve does not need
        // multi-megabyte blocks, and a debug node hashing them misses the
        // 8 heights below about one suite run in five. The saturating +
        // starved-voter cell runs in release (`tests/smoke.rs`).
        spec.load = Some(LoadSpec::digest(18_000));
        spec.drop_push_to = Some(NodeId(3));
        let cluster = Cluster::launch(spec).unwrap();
        let client = TxClient::start(
            TxClientConfig { client_id: 0, tx_bytes: 180, txs_per_sec: 2_000 },
            ClientTarget::InProcess(cluster.mempools().to_vec()),
            cluster.epoch(),
        );
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        // Minimum window for the same reason as the payload sweep: give
        // the nodes' sealers time to seal real batches before stopping.
        let min_run = Instant::now() + std::time::Duration::from_secs(5);
        while (cluster.quorum_committed_height() < 8 || Instant::now() < min_run)
            && Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let height = cluster.quorum_committed_height();
        client.stop();
        let report = cluster.stop();
        assert!(height >= 8, "digest cluster only reached quorum height {height}");

        let summary = report.check_invariants().expect("no safety violations");
        assert!(summary.commits > 0);
        assert!(
            summary.batches_available_checked > 0,
            "availability rule never exercised: no BatchCommitted records"
        );
        assert!(report.txs_committed() > 0, "no real txs committed by reference");
        assert_eq!(report.duplicate_committed_txs(), 0, "tx committed twice");
        assert!(!report.tx_latencies_us().is_empty());
        assert!(!report.stage_latencies().mempool_queue.is_empty(), "no stage samples");

        let sum = |key: &str| -> u64 {
            report.reports.iter().map(|r| r.metrics.counter(key)).sum()
        };
        assert!(sum("dissem.batches_pushed") > 0, "no batch was ever pushed");
        assert!(sum("dissem.batches_stored") > 0, "no pushed batch was stored");
        assert!(sum("dissem.votes_gated") > 0, "starved node never gated a vote");
        assert!(sum("dissem.fetches") > 0, "starved node never fetched");
        assert!(sum("dissem.fetches_served") > 0, "no peer served a fetch");
        assert_eq!(sum("dissem.digest_mismatches"), 0, "a batch frame failed validation");
        // The starved node specifically is the one that had to fetch.
        let starved = &report.reports[3];
        assert!(
            starved.metrics.counter("dissem.fetches") > 0,
            "node 3 resolved batches without fetching despite dropped pushes"
        );
    }

    /// The over-TCP submission path: an external client (no hello, not a
    /// validator) writes `SubmitTx` frames at the nodes' listen sockets;
    /// the shard loops that read them admit them into the mempools, and
    /// the transactions end up in committed blocks.
    #[test]
    fn tcp_clients_submit_txs_that_commit() {
        use crate::client::{ClientTarget, TxClient, TxClientConfig};

        let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
        // We drive load over real sockets instead of in-process clients.
        spec.load = Some(LoadSpec::digest(18_000));
        let cluster = Cluster::launch(spec).unwrap();

        let addrs = cluster.peers().iter().map(|(_, a)| *a).collect();
        let client = TxClient::start(
            TxClientConfig { client_id: 1, tx_bytes: 180, txs_per_sec: 2_000 },
            ClientTarget::Tcp(addrs),
            cluster.epoch(),
        );

        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while cluster.quorum_committed_height() < 8 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let accepted: u64 = cluster.mempools().iter().map(|p| p.counters().accepted).sum();

        let fair_visits: u64 = cluster.mempools().iter().map(|p| p.fair_visits()).sum();

        let stats = client.stop();
        let report = cluster.stop();

        report.check_invariants().expect("no safety violations");
        assert!(stats.submitted > 0, "client wrote no frames");
        assert!(accepted > 0, "no TCP submission reached a mempool");
        assert!(report.txs_committed() > 0, "no TCP-submitted tx committed");
        assert!(!report.tx_latencies_us().is_empty());
        assert!(fair_visits > 0, "loaded run recorded no mempool.fair_visits");
        // Every stage of the trace-derived decomposition has samples under
        // TCP load.
        let stages = report.stage_latencies();
        for (name, samples) in [
            ("mempool_queue", &stages.mempool_queue),
            ("propose_wait", &stages.propose_wait),
            ("vote_to_qc", &stages.vote_to_qc),
            ("qc_to_commit", &stages.qc_to_commit),
        ] {
            assert!(!samples.is_empty(), "no {name} samples under TCP load");
        }
    }

    /// The bufferbloat regression, end to end over real sockets: a paced
    /// TCP client's tail latency must stay flat when a saturating TCP
    /// client floods the same 4-node cluster. Without commit-rate-aware
    /// admission and DRR fairness the paced p99 blows up to seconds
    /// (everything behind a multi-second backlog); with them it stays
    /// within 2× its unloaded value (plus a small absolute grace for
    /// shared-machine noise in CI).
    ///
    /// Ignored: the bound was set on the full-payload path (one prepared
    /// slot per node). On the one networked path a node's sealer seals up to
    /// `DISSEM_BACKLOG_CAP` ahead of the chain into a first-in-first-out
    /// pool that neither admission nor the fair drain sees, and the paced
    /// p99 measures 330–480 ms against a bound near 140 ms. The scenario and
    /// the bound are kept as they were; ROADMAP "Sealed-ahead cap" owns
    /// making it pass (`cargo test -- --ignored` runs it).
    #[test]
    #[ignore = "fails on the batch-ref path until the sealed-ahead cap is bounded (ROADMAP)"]
    fn mixed_tcp_clients_keep_paced_latency_flat() {
        use crate::client::{ClientTarget, TxClient, TxClientConfig};

        let p99 = |lat: &[u64]| lat[(lat.len() - 1) * 99 / 100];
        let run = |with_saturating: bool| -> u64 {
            let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
            spec.load = Some(LoadSpec::digest(1_800));
            let cluster = Cluster::launch(spec).unwrap();
            let addrs: Vec<SocketAddr> = cluster.peers().iter().map(|(_, a)| *a).collect();
            let paced = TxClient::start(
                TxClientConfig { client_id: 1, tx_bytes: 180, txs_per_sec: 500 },
                ClientTarget::Tcp(addrs.clone()),
                cluster.epoch(),
            );
            let saturating = with_saturating.then(|| {
                TxClient::start(
                    TxClientConfig { client_id: 0, tx_bytes: 180, txs_per_sec: 0 },
                    ClientTarget::Tcp(addrs),
                    cluster.epoch(),
                )
            });
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            while cluster.quorum_committed_height() < 12 && Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            drop(saturating);
            drop(paced);
            let report = cluster.stop();
            report.check_invariants().expect("no safety violations");
            let by_client = report.tx_latencies_by_client_us();
            if with_saturating {
                assert!(
                    by_client.contains_key(&0),
                    "saturating client committed nothing"
                );
            }
            let paced_lat = by_client.get(&1).expect("paced client committed nothing");
            p99(paced_lat)
        };

        let unloaded_p99 = run(false);
        let mixed_p99 = run(true);
        // 2× the unloaded tail, with an absolute floor so a microsecond-
        // level baseline (idle loopback) doesn't make the gate meaningless
        // noise.
        let bound = (2 * unloaded_p99).max(unloaded_p99 + 120_000);
        assert!(
            mixed_p99 <= bound,
            "paced client p99 regressed under saturation: \
             {mixed_p99}µs vs unloaded {unloaded_p99}µs (bound {bound}µs)"
        );
    }

    /// Staged verification end to end: the cluster commits, and duplicate
    /// certificate deliveries are cache hits (each distinct proof of a
    /// QC/TC costs one raw verification — the `misses` counter — per node).
    #[test]
    fn verified_cluster_commits_with_cache_hits() {
        let cluster =
            Cluster::launch(ClusterSpec::new(4, ProtocolChoice::Pipelined)).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while cluster.quorum_committed_height() < 5 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let height = cluster.quorum_committed_height();
        let report = cluster.stop();
        assert!(height >= 5, "cluster only reached quorum height {height}");
        report.check_invariants().expect("no safety violations");
        for r in &report.reports {
            let hits = r.metrics.counter("verify.cache_hits");
            let misses = r.metrics.counter("verify.cache_misses");
            assert!(hits > 0, "node {}: no cache hits (hits={hits} misses={misses})", r.node);
            assert!(r.metrics.counter("driver.batches") > 0);
        }
    }

    /// The scaling tentpole: 50 validators in one process, commits flowing,
    /// zero invariant violations, and — the reason the event-driven core
    /// exists — a bounded thread count: the O(cores) shared pool, whose
    /// shards step the nodes, not the old O(n²) per-connection threads
    /// (which for 50 nodes would mean thousands).
    #[test]
    fn fifty_node_cluster_commits_with_bounded_threads() {
        let before = crate::runtime::process_threads().unwrap_or(0);
        let mut spec = ClusterSpec::new(50, ProtocolChoice::Pipelined);
        // An unoptimised build timesharing 50 validators on a small CI box
        // can't hold the default 50 ms block period; what this test gates
        // is scale (commits at n=50, bounded threads), not speed — the
        // release-build CI smoke covers throughput.
        spec.delta = SimDuration::from_millis(300);
        let cluster = Cluster::launch(spec).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        while cluster.quorum_committed_height() < 5 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let height = cluster.quorum_committed_height();
        // Sample while all 50 nodes are live — after stop() the count
        // proves nothing.
        let during = crate::runtime::process_threads().expect("/proc/self/status is readable");
        let report = cluster.stop();
        assert!(height >= 5, "50-node cluster only reached quorum height {height}");
        let summary = report.check_invariants().expect("no safety violations");
        assert!(summary.commits > 0);
        // The shared pool's O(cores) loops, which step, seal, verify and
        // dial for every node, and slack for the test harness and the
        // tests running beside this one. No thread per node.
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let ceiling = (2 * cores + 16) as u64;
        let delta = during.saturating_sub(before);
        assert!(
            delta <= ceiling,
            "50-node cluster grew the process by {delta} threads \
             (from {before} to {during}), ceiling {ceiling}"
        );
    }

    /// Teardown drops nothing: a clean, shaped cluster stops with every
    /// node's report read before any socket closes, so no node counts the
    /// frames its shapers still held toward a peer that closed first, nor
    /// a reconnect to a peer that closed first.
    #[test]
    fn a_clean_shaped_cluster_drops_no_frame_at_stop() {
        let link = crate::shape::LinkShape {
            delay: std::time::Duration::from_millis(20),
            rate_bps: 0,
            burst_bytes: 0,
        };
        let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
        spec.delta = SimDuration::from_millis(100);
        spec.shape = Some(Arc::new(ShapeMatrix::uniform(4, link)));
        let cluster = Cluster::launch(spec).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while cluster.quorum_committed_height() < 5 {
            assert!(Instant::now() < deadline, "the shaped cluster never committed");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let report = cluster.stop();
        report.check_invariants().expect("no safety violations");
        let counted = |name: &str| -> Vec<u64> {
            report.reports.iter().map(|r| r.metrics.counter(&format!("net.total.{name}"))).collect()
        };
        assert_eq!(counted("dropped_frames"), [0; 4], "frames dropped per node");
        assert_eq!(counted("reconnects"), [0; 4], "reconnects per node");
    }

    /// Per-link shaping end to end: the same cluster with a uniform 30 ms
    /// one-way delay must still commit cleanly, and its median commit
    /// latency must sit at least two link delays above the loopback
    /// baseline (a committed block's proposal and votes each crossed the
    /// shaped wire at least once). Exact per-frame delay accuracy is
    /// asserted deterministically in `netpool::tests`.
    #[test]
    fn shaped_cluster_adds_configured_link_delay() {
        let delay = std::time::Duration::from_millis(30);
        let median_commit_us = |shape: Option<Arc<ShapeMatrix>>| -> u64 {
            let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
            // Timeouts must dominate the 60–90 ms shaped round trips or
            // the run measures view changes, not link delay.
            spec.delta = SimDuration::from_millis(100);
            spec.shape = shape;
            let cluster = Cluster::launch(spec).unwrap();
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            while cluster.quorum_committed_height() < 5 && Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            let report = cluster.stop();
            report.check_invariants().expect("no safety violations");
            let mut lats = report.commit_latencies_us();
            assert!(!lats.is_empty(), "no commits to measure");
            lats.sort_unstable();
            lats[lats.len() / 2]
        };

        let base = median_commit_us(None);
        let shape = ShapeMatrix::uniform(
            4,
            crate::shape::LinkShape { delay, rate_bps: 0, burst_bytes: 0 },
        );
        let shaped = median_commit_us(Some(Arc::new(shape)));
        let floor = base + 2 * delay.as_micros() as u64 * 8 / 10; // 2 hops, 20% tolerance
        assert!(
            shaped >= floor,
            "shaped median {shaped}µs under floor {floor}µs (baseline {base}µs + \
             2×{}µs links at 80%)",
            delay.as_micros()
        );
    }
}
