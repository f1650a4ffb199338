//! The node: every decision a validator makes over real I/O, none of the
//! I/O. [`Node`] owns the protocol and everything that decides around it —
//! timers, trace path, commits, sealer, vote gate, batch fetcher, ledger
//! appends, stall watchdog — and reads no clock: every entry point is handed
//! `now`. What it takes in is verified input: consensus messages
//! ([`Node::handle`]) and batches whose digest was checked
//! ([`Node::take_batch`]); what it sends to peers leaves as [`Emit`] values
//! in emission order, and its messages to itself stay with it until its
//! next step. Its home shard ([`netpool`](crate::netpool)) steps it on the
//! wall clock; a test steps it on a clock it makes up. Tracing rides the
//! [`ProtocolObserver`] hook at the protocol's call boundary — the
//! simulator's events, so the invariant checker works on cluster runs.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use moonshot_consensus::{
    BatchFetchPlan, BatchFetcher, CommittedBlock, ConsensusProtocol, Message, NodeConfig, Output,
    PayloadSource, PreVerified, ProtocolObserver, RetryPolicy, TimerToken,
};
use moonshot_crypto::{Digest, VerifiedCache};
use moonshot_ledger::Ledger;
use moonshot_mempool::{DissemPlane, Mempool, Seal, Sealer, BATCH_TX_OVERHEAD};
use moonshot_telemetry::{MetricsRegistry, TraceEvent, TraceRecord, TraceSink};
use moonshot_types::time::{EventQueue, SimDuration, SimTime};
use moonshot_types::{BatchRef, Block, BlockId, NodeId, Payload};
use moonshot_wire::{encode_frame, encode_message, Frame};

use crate::runtime::{NodeReport, SharedSink};
use crate::transport::Inbound;

/// Proposal-time entries above which the map resets — a leak guard for
/// blocks that never commit (e.g. equivocation garbage under faults).
const STAGE_MAP_LIMIT: usize = 16_384;

/// Most polls of the sealer per step, so at most this many batches sealed
/// and pushed to peers. Bounds one step's sealing and broadcast work; the
/// rest seal next step, which [`Node::poll`] asks for at once.
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

/// One piece of a [`Node`]'s network output.
#[derive(Debug)]
pub enum Emit {
    /// A frame for one peer.
    Send(NodeId, Arc<Vec<u8>>),
    /// A frame for one peer in the protected class, exempt from drop-oldest.
    Protected(NodeId, Arc<Vec<u8>>),
    /// One frame, shared by every peer's queue but the one named.
    Broadcast(Arc<Vec<u8>>, Option<NodeId>),
}

/// The node's trace path: forwards every record to the shared sink and
/// remembers when each block was first proposed — the first
/// `ProposalSent`/`ProposalReceived` this node sees for it (the sender
/// stamps send time, everyone else stamps arrival) — until it commits. That
/// is the proposal→commit sample behind delay-bounded admission.
struct TracingSink {
    inner: SharedSink,
    /// Block id → first proposal timestamp (µs since epoch).
    proposed_at: HashMap<BlockId, u64>,
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
            TraceEvent::BlockCommitted { block, .. } => {
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

/// One validator's decisions, stepped with the time by whoever drives it.
pub struct Node {
    node: NodeId,
    protocol: Box<dyn ConsensusProtocol + Send>,
    timers: EventQueue<TimerToken>,
    observer: ProtocolObserver,
    sink: TracingSink,
    commits: Vec<CommittedBlock>,
    /// Committed height mirror for cheap liveness probes.
    committed_height: Arc<AtomicU64>,
    cache: Arc<VerifiedCache>,
    /// The node's mempool (`None` for a consensus-only node) and the sealer
    /// that turns it into batches. The pool is fed commit feedback; its
    /// admission counters land in the final report.
    mempool: Option<(Arc<Mempool>, Sealer)>,
    /// The dissemination plane: the batch store, the proposable pool.
    dissem: Arc<DissemPlane>,
    /// Fault-injection knob: peer skipped by `BatchPush` broadcasts, so
    /// tests can force its fetch fallback to cover.
    drop_push_to: Option<NodeId>,
    /// Outstanding batch fetches for the vote gate's fallback path.
    batch_fetcher: BatchFetcher,
    /// When the one live `BatchFetchTimer` is due. One suffices (each
    /// firing re-arms for the earliest fetch deadline); a token per request
    /// made a starved voter's driver run a million fetcher scans.
    fetch_timer_at: Option<SimTime>,
    /// Proposals / synced blocks parked until every batch ref they carry
    /// resolves in the local store.
    gated: VecDeque<GatedMessage>,
    /// Batches new to the store since the last step took them in: entered
    /// into the proposable pool, and released from the vote gate, there.
    arrived: Vec<BatchRef>,
    /// This node's messages to itself (copies of its multicasts, and what
    /// it sends itself) from its earlier steps, taken in first at its next.
    own: Vec<Inbound>,
    /// Its messages to itself from this step: they join `own` as the step
    /// ends, with its [`poll`](Node::poll).
    own_new: Vec<Inbound>,
    /// The durable ledger: every committed block is appended to it, and
    /// its counters land in the final report.
    ledger: Option<Arc<Ledger>>,
    /// Cleared by the first failed append: a gap would break the segment
    /// chain, so this incarnation appends nothing after it.
    appending: bool,
    /// Stall-watchdog threshold.
    stall_timeout: SimDuration,
    /// When the last commit landed (this incarnation's start until one
    /// does). Reset on every watchdog firing so a persistent wedge emits a
    /// stall per threshold interval.
    last_commit_at: SimTime,
    /// This step's network output, in emission order.
    out: Vec<Emit>,
    /// Whether this step multicast a consensus message: the seal step then
    /// seals the open batch at once, so its push rides the same write.
    multicast: bool,
    messages_handled: u64,
    timers_fired: u64,
    batches: u64,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").field("node", &self.node).finish_non_exhaustive()
    }
}

impl Node {
    /// A node running what `protocol` builds over `cfg`, proposing refs to
    /// `dissem`'s oldest proposable batches and sealing `mempool`, if any,
    /// into batches of its base size ([`Sealer`]) that it pushes to every
    /// peer but `drop_push_to`. Its trace goes to `sink`.
    pub fn new(
        mut cfg: NodeConfig,
        protocol: impl FnOnce(NodeConfig) -> Box<dyn ConsensusProtocol + Send>,
        dissem: Arc<DissemPlane>,
        mempool: Option<(Arc<Mempool>, usize)>,
        drop_push_to: Option<NodeId>,
        sink: SharedSink,
    ) -> Node {
        let (node, delta) = (cfg.node_id, cfg.delta);
        let batch_fetcher =
            BatchFetcher::new(node, cfg.keyring.len(), RetryPolicy::auto().resolve(delta));
        // Reading takes nothing out of the pool: the node marks the refs in
        // flight when it sees the proposal, as it does for everyone else's.
        let plane = dissem.clone();
        cfg.payloads = PayloadSource::Custom(Box::new(move |_| {
            Payload::batches(plane.pool.proposable(PROPOSAL_MAX_REFS))
        }));
        let cache = cfg.verified_cache.clone();
        Node {
            node,
            protocol: protocol(cfg),
            timers: EventQueue::new(),
            observer: ProtocolObserver::new(node),
            sink: TracingSink { inner: sink, proposed_at: HashMap::new() },
            commits: Vec::new(),
            committed_height: Arc::new(AtomicU64::new(0)),
            cache,
            mempool: mempool.map(|(pool, base)| (pool, Sealer::new(base))),
            dissem,
            drop_push_to,
            batch_fetcher,
            fetch_timer_at: None,
            gated: VecDeque::new(),
            arrived: Vec::new(),
            own: Vec::new(),
            own_new: Vec::new(),
            ledger: None,
            appending: true,
            stall_timeout: delta * STALL_DELTA_MULTIPLE,
            last_commit_at: SimTime::ZERO,
            out: Vec::new(),
            multicast: false,
            messages_handled: 0,
            timers_fired: 0,
            batches: 0,
        }
    }

    /// Also appends every block it commits to `ledger`. The committed
    /// height starts at the recovered one: liveness probes should never
    /// report a restarted node as having lost its chain.
    pub fn durable(mut self, ledger: Arc<Ledger>) -> Node {
        self.committed_height.store(ledger.recovered_height(), Ordering::Relaxed);
        self.ledger = Some(ledger);
        self
    }

    /// The live mirror of the committed height.
    pub fn height_gauge(&self) -> Arc<AtomicU64> {
        self.committed_height.clone()
    }

    /// The output of the steps since the last call, in emission order,
    /// for whoever steps the node to apply before the next step
    /// (push-before-propose).
    pub fn output(&mut self) -> std::vec::Drain<'_, Emit> {
        self.out.drain(..)
    }

    /// Starts the protocol at `now`. The stall watchdog counts from here: a
    /// restarted node's clock is the cluster's, seconds old.
    pub fn start(&mut self, now: SimTime) {
        self.last_commit_at = now;
        let outputs = self.protocol.start(now);
        self.process(outputs, now);
    }

    /// One drained batch of the inbox, each message stamped with the time
    /// it is dispatched at. What waits from earlier steps is taken in
    /// first, at the first message's time: the batches that arrived, then
    /// the node's own messages.
    pub fn handle(&mut self, batch: impl IntoIterator<Item = (SimTime, Inbound)>) {
        for (i, (now, inbound)) in batch.into_iter().enumerate() {
            if i == 0 {
                self.take_in(now);
            }
            self.dispatch(inbound, now);
        }
    }

    /// A batch whose bytes the shard checked against `digest`: stored, and,
    /// if the store did not hold it yet, taken in at the next step — into
    /// the proposable pool, out of the vote gate.
    pub fn take_batch(&mut self, digest: Digest, bytes: Arc<[u8]>) {
        let len = bytes.len() as u64;
        if self.dissem.store.insert(digest, bytes) {
            self.arrived.push(BatchRef { digest, bytes: len });
        }
    }

    /// The start of a step that takes in messages: the batches that arrived
    /// since the last step (a proposal a message triggers carries every one
    /// of them, and a gated proposal whose push arrived is delivered ahead
    /// of the messages), then the node's own messages, ahead of what was
    /// verified since.
    fn take_in(&mut self, now: SimTime) {
        self.batches += 1;
        self.sync_dissem(now);
        for inbound in std::mem::take(&mut self.own) {
            self.dispatch(inbound, now);
        }
    }

    /// Ends a step: takes in the node's messages to itself from earlier
    /// steps if no [`handle`](Node::handle) did, fires the timers due by
    /// `now`, seals and pushes what is due (the open batch too if the step
    /// multicast, behind the multicast), takes in the batches that arrived,
    /// checks for a stall, and keeps the step's messages to itself for the
    /// next. Returns when the node next needs a step: the earliest of its
    /// next timer, the open batch's due time and the stall deadline — `now`
    /// itself while a message to itself waits or the push limit cut sealing
    /// short — or `None` when nothing is armed.
    pub fn poll(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.own.is_empty() {
            self.take_in(now);
        }
        for token in self.timers.expire(now) {
            self.timers_fired += 1;
            if token == TimerToken::BatchFetchTimer {
                // Dissemination-plane timer: handled entirely by the node,
                // never by the protocol. Superseded tokens are stale.
                if self.fetch_timer_at.is_some_and(|at| at <= now) {
                    self.fetch_timer_at = None;
                    let plan = self.batch_fetcher.on_timer(now);
                    self.execute_fetch_plan(plan, now);
                }
                continue;
            }
            self.observer.on_timer_fired(token, now, &mut self.sink);
            let outputs = self.protocol.handle_timer(token, now);
            self.process(outputs, now);
        }
        let seal_due = self.sync_dissem(now);
        self.check_stall(now);
        let stall_at = self.last_commit_at + self.stall_timeout;
        self.own.append(&mut self.own_new);
        let own = (!self.own.is_empty()).then_some(now);
        [self.timers.next_at(), seal_due, Some(stall_at), own].into_iter().flatten().min()
    }

    /// The node's report, with the counters of the components it owns.
    pub fn stop(mut self) -> NodeReport {
        self.sink.flush();
        let (metrics, final_view) = (self.report_metrics(), self.protocol.current_view());
        NodeReport { node: self.node, commits: self.commits, final_view, metrics }
    }

    /// The stall watchdog: if no commit landed within the configured
    /// threshold, emit a [`TraceEvent::Stall`] snapshot and re-arm. The
    /// snapshot carries the state a human would first ask about — which
    /// view we're stuck in, how many messages it holds undelivered (its
    /// own, queued for its next step, and those the vote gate parks), how
    /// many timers are armed, how much the mempool is holding.
    fn check_stall(&mut self, now: SimTime) {
        if now < self.last_commit_at + self.stall_timeout {
            return;
        }
        // Re-arm from now so a persistent wedge produces one stall event
        // per threshold interval, not one per step.
        self.last_commit_at = now;
        let event = TraceEvent::Stall {
            node: self.node,
            view: self.protocol.current_view(),
            height: moonshot_types::Height(self.committed_height.load(Ordering::Relaxed)),
            inbound: (self.gated.len() + self.own.len() + self.own_new.len()) as u64,
            timers: self.timers.len() as u64,
            mempool: self.mempool.as_ref().map(|(p, _)| p.len()).unwrap_or(0),
        };
        self.sink.record(TraceRecord { at: now, event });
        // A wedged node is often killed rather than stopped: the stall
        // record must reach a buffered trace file now, not at stop.
        self.sink.flush();
    }

    /// The counters of the components the node owns, read once when it
    /// stops: its own, the verified-certificate cache, the dissemination
    /// plane, the mempool and the ledger. Only names something reads are
    /// written: the benchmark's report, a test, or a diagnosis.
    fn report_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.set_counter("driver.messages_handled", self.messages_handled);
        m.set_counter("driver.timers_fired", self.timers_fired);
        m.set_counter("driver.commits", self.commits.len() as u64);
        m.set_counter("driver.batches", self.batches);
        let cache = self.cache.stats();
        m.set_counter("verify.cache_hits", cache.hits);
        m.set_counter("verify.cache_misses", cache.misses);
        m.set_counter("crypto.batch_verify_calls", cache.batch_calls);
        m.set_counter("crypto.batch_verify_items", cache.batch_items);
        let s = self.dissem.counters.stats();
        m.set_counter("dissem.batches_pushed", s.batches_pushed);
        m.set_counter("dissem.batches_stored", s.batches_stored);
        m.set_counter("dissem.digest_mismatches", s.digest_mismatches);
        m.set_counter("dissem.fetches", s.fetches);
        m.set_counter("dissem.fetches_served", s.fetches_served);
        m.set_counter("dissem.votes_gated", s.votes_gated);
        m.set_counter("dissem.requeued", self.dissem.pool.requeued());
        if let Some((pool, _)) = &self.mempool {
            let c = pool.counters();
            m.set_counter("mempool.accepted", c.accepted);
            m.set_counter("mempool.rejected", c.rejected);
        }
        if let Some(ledger) = &self.ledger {
            ledger.publish_into(&mut m);
        }
        m
    }

    /// Feeds one inbound message toward the protocol. A proposal (or synced
    /// block) whose batch refs the local store cannot resolve is *gated*:
    /// parked until the refs arrive (normally the in-flight `BatchPush`,
    /// else the fetch fallback kicked off here) so the protocol never votes
    /// for data this node could not re-serve.
    fn dispatch(&mut self, inbound: Inbound, now: SimTime) {
        let Inbound { from, msg } = inbound;
        if let Some(block) = carried_block(msg.message()) {
            // On receipt, not on delivery: this node may lead the next view
            // off a certificate while the gate below still holds the body.
            self.note_proposed(block);
        }
        let missing = self.unresolved_refs(msg.message());
        if !missing.is_empty() {
            self.dissem.counters.votes_gated.fetch_add(1, Ordering::Relaxed);
            // The sender certainly holds the bytes (it proposed or voted
            // for them), so it is the first fetch hint — asked at once for
            // a synced block, whose pushes are long gone, and only after
            // the push has had its Δ for a fresh proposal.
            let push_in_flight = !matches!(msg.message(), Message::BlockResponse { .. });
            for d in &missing {
                let plan = self.batch_fetcher.request(*d, [from], now, push_in_flight);
                self.execute_fetch_plan(plan, now);
            }
            if self.gated.len() >= GATED_LIMIT {
                self.gated.pop_front();
            }
            self.gated.push_back(GatedMessage { from, msg, missing });
            return;
        }
        self.deliver(from, msg, now);
    }

    /// Hands one message to the protocol. Every message was verified before
    /// it reached the node, so the node itself performs no signature checks.
    fn deliver(&mut self, from: NodeId, msg: PreVerified, now: SimTime) {
        self.messages_handled += 1;
        self.observer.on_message_received(from, msg.message(), now, &mut self.sink);
        let outputs = self.protocol.handle_preverified(from, msg, now);
        self.process(outputs, now);
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
    fn execute_fetch_plan(&mut self, plan: BatchFetchPlan, now: SimTime) {
        for (to, digest) in plan.requests {
            self.dissem.counters.fetches.fetch_add(1, Ordering::Relaxed);
            self.out.push(Emit::Send(to, Arc::new(encode_frame(&Frame::BatchRequest { digest }))));
        }
        let at = plan.rearm.map(|after| now + after);
        if let Some(at) = at.filter(|&at| self.fetch_timer_at.is_none_or(|live| at < live)) {
            self.timers.push(at, TimerToken::BatchFetchTimer);
            self.fetch_timer_at = Some(at);
        }
    }

    /// A proposal or synced block reached this node (or left it): its refs
    /// are in flight under it from here on.
    fn note_proposed(&self, block: &Block) {
        let refs = block.payload().batch_refs().unwrap_or(&[]);
        if !refs.is_empty() {
            self.dissem.pool.referenced(block.id(), block.height().0, refs);
        }
    }

    /// The dissemination plane's turn: seal and push what is due (before
    /// it can be proposed — push-before-propose), then take the batches
    /// that arrived into the proposable pool and release gated votes. A vote
    /// a released message multicasts takes the open batch along at once.
    /// Returns [`push_batches`](Node::push_batches)'s deadline.
    fn sync_dissem(&mut self, now: SimTime) -> Option<SimTime> {
        let seal_due = self.push_batches(now);
        self.drain_stored(now);
        if self.multicast {
            return self.push_batches(now);
        }
        seal_due
    }

    /// The seal step: polls the sealer until nothing is due, and stores
    /// each batch it seals, broadcasts it as a `BatchPush` frame and only
    /// then enters it into the proposable pool — the push-before-propose
    /// guarantee: this node can only propose its own ref after the bytes
    /// sit ahead of it in every peer's output, and per-peer TCP FIFO keeps
    /// the push ahead of the proposal on the wire. When the step has
    /// multicast a consensus message (a vote, certificate, proposal or
    /// timeout), it takes that note and seals the open batch without its
    /// linger ([`Sealer::ride`], unless the pool's last batch filled to the
    /// base size): the push queues behind the multicast and
    /// leaves in the same write on every link, and a proposal of this step
    /// was built before the batch entered the pool, so the next one carries
    /// it. A unicast seals nothing: there the push would cost n − 2 writes
    /// of its own. This is also where a batch's seal lands in the trace,
    /// once, on the node that sealed it: the [`TraceEvent::BatchSealed`]
    /// record the report's stage decomposition starts from, and the
    /// node's own [`TraceEvent::BatchStored`] record. Returns when
    /// the node must be stepped again: when the open batch falls due, or
    /// `now` when [`PUSH_LIMIT`] cut the step short.
    fn push_batches(&mut self, now: SimTime) -> Option<SimTime> {
        let ride = std::mem::take(&mut self.multicast);
        let (pool, sealer) = self.mempool.as_mut()?;
        let plane = &self.dissem;
        for _ in 0..PUSH_LIMIT {
            let backlog = plane.backlog_bytes();
            let seal =
                if ride { sealer.ride(now.0, pool, backlog) } else { sealer.poll(now.0, pool, backlog) };
            let b = match seal {
                Seal::Batch(b) => b,
                // An empty drain: retried within the step's bound.
                Seal::Due(at) if at <= now.0 => continue,
                Seal::Due(at) => return Some(SimTime(at)),
                Seal::Idle => return None,
            };
            let stored = plane.store.insert(b.digest, b.bytes.clone());
            let frame = Arc::new(encode_frame(&Frame::BatchPush {
                digest: b.digest,
                bytes: b.bytes.clone(),
            }));
            self.out.push(Emit::Broadcast(frame, self.drop_push_to));
            plane.counters.batches_pushed.fetch_add(1, Ordering::Relaxed);
            plane.pool.stored(b.batch_ref(), true);
            self.sink.record(TraceRecord {
                at: SimTime(b.sealed_at_us),
                event: TraceEvent::BatchSealed {
                    node: self.node,
                    batch: b.digest,
                    txs: b.tx_count,
                    bytes: b.bytes.len() as u64,
                },
            });
            if stored {
                let event = TraceEvent::BatchStored { node: self.node, batch: b.digest };
                self.sink.record(TraceRecord { at: now, event });
            }
        }
        Some(now)
    }

    /// Takes in the batches [`take_batch`](Node::take_batch) stored since
    /// the last call: enters them into the proposable pool, records
    /// `BatchStored` trace events, settles outstanding fetches, and delivers
    /// any gated message whose missing set drained empty.
    fn drain_stored(&mut self, now: SimTime) {
        if self.arrived.is_empty() {
            return;
        }
        let stored = std::mem::take(&mut self.arrived);
        for b in &stored {
            self.dissem.pool.stored(*b, false);
            self.batch_fetcher.fulfilled(&b.digest);
            self.sink.record(TraceRecord {
                at: now,
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
                self.deliver(g.from, g.msg, now);
            } else {
                i += 1;
            }
        }
    }

    /// Keeps one of this node's messages to itself for its next step, trusted
    /// without a check: a message this node signed itself, or a block
    /// `BlockFetcher` served from this node's own durable store (a
    /// self-addressed `BlockResponse`, not self-signed but read back from
    /// our disk).
    fn keep_own(&mut self, msg: Message) {
        self.own_new.push(Inbound { from: self.node, msg: PreVerified::trusted(msg) });
    }

    fn process(&mut self, outputs: Vec<Output>, now: SimTime) {
        // Commit feedback to the mempool. Must run before `on_outputs`:
        // recording `BlockCommitted` prunes the block's proposal timestamp
        // from the tracing sink, and the proposal→commit latency sample
        // needs it.
        if let Some((pool, _)) = &self.mempool {
            for out in &outputs {
                let Output::Commit(c) = out else { continue };
                let latency = self
                    .sink
                    .proposed_at
                    .get(&c.block.id())
                    .map(|&proposed| now.0.saturating_sub(proposed));
                feed_commit(pool, &c.block, latency, now.0);
            }
        }
        self.observer.on_outputs(&outputs, self.protocol.current_view(), now, &mut self.sink);
        for out in outputs {
            match out {
                Output::Send(to, msg) if to == self.node => self.keep_own(msg),
                Output::Send(to, msg) => {
                    self.out.push(if matches!(msg, Message::BlockResponse { .. }) {
                        // Sync responses ride the protected queue class.
                        Emit::Protected(to, Arc::new(encode_message(&msg)))
                    } else {
                        Emit::Send(to, Arc::new(encode_message(&msg)))
                    });
                }
                Output::Multicast(msg) => {
                    if let Some(block) = carried_block(&msg) {
                        // Our own proposal: in flight before anything else
                        // can ask the pool for a payload.
                        self.note_proposed(block);
                    }
                    self.out.push(Emit::Broadcast(Arc::new(encode_message(&msg)), None));
                    self.multicast = true;
                    // Multicast includes self.
                    self.keep_own(msg);
                }
                Output::SetTimer { token, after } => {
                    self.timers.push(now + after, token);
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
                            at: now,
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
                    // On disk before the liveness probe may report it.
                    if let Some(ledger) = self.ledger.as_ref().filter(|_| self.appending) {
                        if let Err(e) = ledger.append_committed(&c.block) {
                            eprintln!("[node {}] ledger append failed: {e}", self.node);
                            self.appending = false;
                        }
                    }
                    self.committed_height.store(c.block.height().0, Ordering::Relaxed);
                    self.last_commit_at = now;
                    self.commits.push(c);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    use moonshot_consensus::MessageVerifier;
    use moonshot_crypto::KeyPair;
    use moonshot_mempool::seal::DISSEM_BACKLOG_CAP;
    use moonshot_mempool::{batch_digest, make_tx, MempoolConfig};
    use moonshot_telemetry::RingBufferSink;
    use moonshot_types::{BatchRef, QuorumCertificate, SignedVote, View, Vote, VoteKind};
    use moonshot_wire::decode_frame;

    /// A handled message: its tag, and what the proposable pool would have
    /// offered a leader at that instant.
    pub(crate) type Handled = (&'static str, Vec<BatchRef>);

    /// A protocol double that notes every message it is handed, commits
    /// every synced block it is handed, and arms one view timer at start
    /// if told to.
    pub(crate) struct Recorder {
        plane: Arc<DissemPlane>,
        handled: Arc<Mutex<Vec<Handled>>>,
        verifier: MessageVerifier,
        timer: Option<SimDuration>,
    }

    impl Recorder {
        /// Builds a recorder over a node's configuration.
        pub(crate) fn build(
            plane: &Arc<DissemPlane>,
            handled: &Arc<Mutex<Vec<Handled>>>,
            timer: Option<SimDuration>,
        ) -> impl FnOnce(NodeConfig) -> Box<dyn ConsensusProtocol + Send> {
            let (plane, handled) = (plane.clone(), handled.clone());
            move |cfg| {
                let verifier = MessageVerifier::for_config(&cfg);
                Box::new(Recorder { plane, handled, verifier, timer })
            }
        }
    }

    impl ConsensusProtocol for Recorder {
        fn start(&mut self, _: SimTime) -> Vec<Output> {
            let arm = |after| Output::SetTimer { token: TimerToken::ViewTimer(View(1)), after };
            self.timer.map(arm).into_iter().collect()
        }
        fn handle_preverified(&mut self, _: NodeId, msg: PreVerified, _: SimTime) -> Vec<Output> {
            let offer = self.plane.pool.proposable(usize::MAX);
            self.handled.lock().unwrap().push((msg.message().tag(), offer));
            match msg.into_inner() {
                Message::BlockResponse { block } => {
                    vec![Output::Commit(CommittedBlock { block, direct: true, commit_view: View(1) })]
                }
                _ => Vec::new(),
            }
        }
        fn verifier(&self) -> &MessageVerifier {
            &self.verifier
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

    /// A protocol double with the shape of a protocol's answers, not their
    /// rules: an optimistic proposal is answered with a vote it multicasts,
    /// a vote with one it unicasts to node 1 (Jolteon's shape), a
    /// certificate with a proposal of its own, carrying what the node's
    /// payload source offers; anything else with nothing. It notes the refs
    /// of every block it proposes.
    struct Answerer {
        cfg: NodeConfig,
        verifier: MessageVerifier,
        tip: Block,
        proposed: Arc<Mutex<Vec<Vec<BatchRef>>>>,
    }

    impl Answerer {
        fn vote(&self, vote: Vote) -> Message {
            Message::Vote(SignedVote::sign(vote, self.cfg.node_id, &self.cfg.keypair))
        }
    }

    impl ConsensusProtocol for Answerer {
        fn start(&mut self, _: SimTime) -> Vec<Output> {
            Vec::new()
        }
        fn handle_preverified(&mut self, _: NodeId, msg: PreVerified, _: SimTime) -> Vec<Output> {
            match msg.into_inner() {
                Message::OptPropose { block, view } => {
                    let (block_id, block_height) = (block.id(), block.height());
                    let kind = VoteKind::Optimistic;
                    vec![Output::Multicast(self.vote(Vote { kind, block_id, block_height, view }))]
                }
                Message::Vote(v) => vec![Output::Send(NodeId(1), self.vote(v.vote))],
                Message::Certificate(_) => {
                    let view = View(self.tip.height().0 + 1);
                    let payload = self.cfg.payloads.payload_for(view);
                    let block = Block::build(view, self.cfg.node_id, &self.tip, payload);
                    let refs = block.payload().batch_refs().unwrap_or(&[]).to_vec();
                    self.proposed.lock().unwrap().push(refs);
                    self.tip = block.clone();
                    vec![Output::Multicast(Message::OptPropose { block, view })]
                }
                _ => Vec::new(),
            }
        }
        fn verifier(&self) -> &MessageVerifier {
            &self.verifier
        }
        fn handle_timer(&mut self, _: TimerToken, _: SimTime) -> Vec<Output> {
            Vec::new()
        }
        fn current_view(&self) -> View {
            View(1)
        }
        fn name(&self) -> &'static str {
            "answerer"
        }
    }

    const DELTA: SimDuration = SimDuration(50_000);
    /// The stall threshold at [`DELTA`]: 40 × 50 ms.
    const STALL: SimDuration = SimDuration(2_000_000);

    /// Node 0 of one over `plane`, tracing into the returned ring.
    fn node(
        plane: &Arc<DissemPlane>,
        handled: &Arc<Mutex<Vec<Handled>>>,
        timer: Option<SimDuration>,
    ) -> (Node, Arc<Mutex<RingBufferSink>>) {
        sealing_node(plane, handled, timer, None)
    }

    /// [`node`], sealing `mempool` if given.
    fn sealing_node(
        plane: &Arc<DissemPlane>,
        handled: &Arc<Mutex<Vec<Handled>>>,
        timer: Option<SimDuration>,
        mempool: Option<(Arc<Mempool>, usize)>,
    ) -> (Node, Arc<Mutex<RingBufferSink>>) {
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1024)));
        let node = Node::new(
            NodeConfig::simulated(NodeId(0), 1, DELTA),
            Recorder::build(plane, handled, timer),
            plane.clone(),
            mempool,
            None,
            ring.clone(),
        );
        (node, ring)
    }

    /// Node 0 of four, answering with an [`Answerer`] and sealing `pool`
    /// (base 18 000 B) at a measured block period of 100 ms, so an
    /// under-full batch lingers 25 ms. Returns the refs of every block it
    /// proposes.
    fn answering_node(
        plane: &Arc<DissemPlane>,
        pool: &Arc<Mempool>,
    ) -> (Node, Arc<Mutex<Vec<Vec<BatchRef>>>>) {
        for k in 1..=3 {
            pool.note_commit(false, 0, 0, None, k * 100_000);
        }
        assert_eq!(pool.block_period_ewma_us(), 100_000);
        let proposed = Arc::new(Mutex::new(Vec::new()));
        let answerer = {
            let proposed = proposed.clone();
            move |cfg: NodeConfig| -> Box<dyn ConsensusProtocol + Send> {
                let verifier = MessageVerifier::for_config(&cfg);
                Box::new(Answerer { cfg, verifier, tip: Block::genesis(), proposed })
            }
        };
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1024)));
        let mempool = Some((pool.clone(), 18_000));
        let cfg = NodeConfig::simulated(NodeId(0), 4, DELTA);
        (Node::new(cfg, answerer, plane.clone(), mempool, None, ring), proposed)
    }

    /// The linger of [`answering_node`]'s pool: a quarter of 100 ms.
    const LINGER: SimDuration = SimDuration(25_000);

    /// What the steps since the last call emitted, in order: a broadcast's
    /// message tag or `batch-push`, and `send` and the tag for a unicast.
    fn emitted(node: &mut Node) -> Vec<String> {
        let tag = |frame: &[u8]| match decode_frame(frame).expect("a frame the node encoded") {
            Frame::Consensus(msg) => msg.tag().to_string(),
            Frame::BatchPush { .. } => "batch-push".to_string(),
            _ => "other".to_string(),
        };
        let kind = |e: Emit| match e {
            Emit::Broadcast(frame, _) => tag(&frame),
            Emit::Send(_, frame) | Emit::Protected(_, frame) => format!("send {}", tag(&frame)),
        };
        node.output().map(kind).collect()
    }

    /// An empty optimistic proposal from node 1, which node 0 votes for.
    fn opt_propose() -> Message {
        let block = Block::build(View(1), NodeId(1), &Block::genesis(), Payload::batches(Vec::new()));
        Message::OptPropose { block, view: View(1) }
    }

    /// Node 1's vote, which node 0 answers with a unicast.
    fn peer_vote() -> Message {
        let genesis = Block::genesis();
        let vote = Vote {
            kind: VoteKind::Normal,
            block_id: genesis.id(),
            block_height: genesis.height(),
            view: View(1),
        };
        Message::Vote(SignedVote::sign(vote, NodeId(1), &KeyPair::from_seed(1)))
    }

    /// What the sigverify stage hands on for a message that checked out.
    fn inbound(msg: Message) -> Inbound {
        Inbound { from: NodeId(1), msg: PreVerified::trusted(msg) }
    }

    fn batch_ref(tag: u8) -> BatchRef {
        BatchRef { digest: batch_digest(&[tag; 64]), bytes: 64 }
    }

    /// What the home shard does with a `BatchPush` whose digest checks out.
    fn arrive(node: &mut Node, tag: u8) {
        node.take_batch(batch_ref(tag).digest, vec![tag; 64].into());
    }

    fn synced_block(refs: Vec<BatchRef>) -> Message {
        Message::BlockResponse {
            block: Block::build(View(1), NodeId(1), &Block::genesis(), Payload::batches(refs)),
        }
    }

    /// A peer's push is handed to the node when its shard reads it, and
    /// taken in at the node's next step; what arrived when a message
    /// wakes it must be in the pool *before* that message is dispatched,
    /// or the proposal the message triggers leaves the batch behind for a
    /// whole period. Likewise a gated block whose missing batch arrived
    /// during the wait goes to the protocol ahead of the message that ended
    /// the wait, not after it.
    #[test]
    fn a_waking_driver_takes_in_batch_arrivals_before_it_dispatches() {
        let plane = DissemPlane::new(1 << 20);
        let handled = Arc::new(Mutex::new(Vec::new()));
        let (mut node, _) = node(&plane, &handled, None);
        let wake = |node: &mut Node, at: u64| {
            let msg = Message::BlockRequest { block_id: Block::genesis().id() };
            node.handle([(SimTime(at), inbound(msg))]);
        };
        let handled_len = || handled.lock().unwrap().len();
        node.start(SimTime(0));
        node.poll(SimTime(0));

        // A batch arrives while the driver is blocked; the next message
        // finds it on offer.
        arrive(&mut node, 1);
        wake(&mut node, 1_000);
        assert_eq!(handled_len(), 1);
        assert_eq!(handled.lock().unwrap()[0], ("block-request", vec![batch_ref(1)]));

        // A synced block naming a batch this node lacks is gated; the batch
        // arrives, and the wake-up delivers the block first.
        node.handle([(SimTime(2_000), inbound(synced_block(vec![batch_ref(2)])))]);
        node.poll(SimTime(2_000));
        assert_eq!(plane.counters.stats().votes_gated, 1);
        assert_eq!(handled_len(), 1, "a block with an unresolved ref was delivered");
        arrive(&mut node, 2);
        wake(&mut node, 3_000);
        assert_eq!(handled_len(), 3);
        let tags: Vec<&str> = handled.lock().unwrap().iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, ["block-request", "block-response", "block-request"]);
    }

    /// A batch the shard hands over twice (two pushes, or a push and a
    /// fetch response) enters the pool once and is recorded stored once;
    /// a batch this node seals is recorded stored once, in the step that
    /// seals it, and not again when a peer pushes it back; and a batch
    /// that committed is not taken in again.
    #[test]
    fn a_batch_is_taken_in_once_whoever_stores_it() {
        let plane = DissemPlane::new(1 << 20);
        let handled = Arc::new(Mutex::new(Vec::new()));
        let pool = Arc::new(Mempool::new(MempoolConfig::default()));
        let mempool = Some((pool.clone(), 18_000));
        let (mut node, ring) = sealing_node(&plane, &handled, None, mempool);
        let stored = || -> Vec<Digest> {
            let ring = ring.lock().unwrap();
            let batch = |r: &TraceRecord| match r.event {
                TraceEvent::BatchStored { batch, .. } => Some(batch),
                _ => None,
            };
            ring.iter().filter_map(batch).collect()
        };
        let t = SimTime(1_000_000);
        node.start(t);
        arrive(&mut node, 1);
        arrive(&mut node, 1);
        node.poll(t);
        assert_eq!(plane.pool.proposable(usize::MAX), [batch_ref(1)]);
        assert_eq!(stored(), [batch_ref(1).digest]);

        // With ω̂ unmeasured, an under-full batch is due 200 µs after the
        // poll that finds it open.
        pool.submit(make_tx(t.0, 1, 0, 180)).unwrap();
        let due = node.poll(t).expect("the batch is open");
        node.poll(due);
        let offer = plane.pool.proposable(usize::MAX);
        assert_eq!(offer.len(), 2);
        let own = offer[1];
        assert_eq!(stored(), [batch_ref(1).digest, own.digest]);
        let bytes = plane.store.get(&own.digest).expect("the sealed batch is stored");
        node.take_batch(own.digest, bytes);
        node.poll(due);
        assert_eq!(stored().len(), 2, "a peer's copy of an own batch is not new");

        // The recorder commits the synced block that carries batch 1.
        node.handle([(due, inbound(synced_block(vec![batch_ref(1)])))]);
        assert_eq!(plane.pool.proposable(usize::MAX), [own]);
        arrive(&mut node, 1);
        node.poll(due);
        assert_eq!(plane.pool.proposable(usize::MAX), [own], "a committed batch came back");
        assert_eq!(stored().len(), 2);
        assert_eq!(plane.counters.stats().batches_stored, 2);
    }

    /// However many fetches are outstanding, one batch-fetch timer is
    /// armed, and it still sends every overdue request when it fires.
    #[test]
    fn one_batch_fetch_timer_serves_every_outstanding_fetch() {
        let plane = DissemPlane::new(1 << 20);
        let handled = Arc::new(Mutex::new(Vec::new()));
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1024)));
        let mut node = Node::new(
            NodeConfig::simulated(NodeId(0), 4, DELTA),
            Recorder::build(&plane, &handled, None),
            plane.clone(),
            None,
            None,
            ring,
        );
        node.start(SimTime(0));
        for tag in 0..50u8 {
            let payload = Payload::batches(vec![batch_ref(tag)]);
            let block = Block::build(View(1), NodeId(1), &Block::genesis(), payload);
            let at = SimTime(1_000 + tag as u64);
            node.handle([(at, inbound(Message::OptPropose { block, view: View(1) }))]);
        }
        assert_eq!(plane.counters.stats().votes_gated, 50);
        assert_eq!(node.timers.len(), 1, "one timer for fifty fetches");
        let due = node.poll(SimTime(1_050)).expect("a fetch is armed");
        assert_eq!(node.output().count(), 0, "the pushes still have their grace");
        node.poll(due + DELTA);
        let requests = node.output().filter(|e| matches!(e, Emit::Send(NodeId(1), _))).count();
        assert_eq!(requests, 50, "every overdue fetch goes out");
        assert_eq!(node.timers.len(), 1);
    }

    /// The watchdog's record lands exactly at the last commit + 40Δ, once
    /// per threshold interval, and a restarted incarnation — whose clock is
    /// the cluster's, long past 40Δ — counts from its own start.
    #[test]
    fn the_stall_record_lands_forty_delta_after_the_last_commit() {
        let plane = DissemPlane::new(1 << 20);
        let handled = Arc::new(Mutex::new(Vec::new()));
        let (mut node, ring) = node(&plane, &handled, None);
        let stalls = || -> Vec<SimTime> {
            let ring = ring.lock().unwrap();
            ring.iter().filter(|r| matches!(r.event, TraceEvent::Stall { .. })).map(|r| r.at).collect()
        };
        let start = SimTime(30_000_000);
        node.start(start);
        assert_eq!(node.poll(start), Some(start + STALL));
        assert_eq!(node.poll(SimTime((start + STALL).0 - 1)), Some(start + STALL));
        assert!(stalls().is_empty(), "stalled before its start + 40Δ");

        let commit = start + SimDuration::from_millis(1_500);
        node.handle([(commit, inbound(synced_block(Vec::new())))]);
        assert_eq!(node.poll(commit), Some(commit + STALL));
        assert_eq!(node.poll(start + STALL), Some(commit + STALL));
        node.poll(SimTime((commit + STALL).0 - 1));
        assert!(stalls().is_empty(), "stalled within 40Δ of a commit");

        let first = commit + STALL;
        assert_eq!(node.poll(first), Some(first + STALL));
        assert_eq!(stalls(), [first]);
        assert_eq!(node.poll(SimTime((first + STALL).0 - 1)), Some(first + STALL));
        assert_eq!(stalls(), [first], "one record per threshold interval");
        node.poll(first + STALL);
        assert_eq!(stalls(), [first, first + STALL]);
    }

    /// `poll` names the earliest of the next timer, the open batch's due
    /// time and the stall deadline, and `now` itself while the push limit
    /// leaves batches to seal.
    #[test]
    fn poll_names_the_earliest_deadline() {
        let plane = DissemPlane::new(1 << 20);
        let handled = Arc::new(Mutex::new(Vec::new()));
        let t = SimTime(1_000_000);

        let (mut idle, _) = node(&plane, &handled, None);
        idle.start(t);
        assert_eq!(idle.poll(t), Some(t + STALL), "only the watchdog is armed");

        let second = SimDuration::from_millis(1_000);
        let (mut timed, _) = node(&plane, &handled, Some(second));
        timed.start(t);
        assert_eq!(timed.poll(t), Some(t + second), "the view timer is first");

        // With ω̂ unmeasured, an under-full batch is due 200 µs after the
        // poll that finds it open.
        let pool = Arc::new(Mempool::new(MempoolConfig::default()));
        let mempool = Some((pool.clone(), 18_000));
        let (mut sealing, _) = sealing_node(&plane, &handled, Some(second), mempool);
        sealing.start(t);
        pool.submit(make_tx(0, 1, 0, 180)).unwrap();
        let at = t + SimDuration(10);
        assert_eq!(sealing.poll(at), Some(at + SimDuration(200)), "the open batch is first");
        assert_eq!(sealing.output().count(), 0);
        assert_eq!(sealing.poll(at + SimDuration(200)), Some(t + second));
        assert!(matches!(sealing.output().next(), Some(Emit::Broadcast(_, None))));

        // 400 transactions in batches of at most four: the push limit cuts
        // the first step at 64 batches, and the next step seals the rest.
        let pool = Arc::new(Mempool::new(MempoolConfig::default()));
        let mempool = Some((pool.clone(), 200));
        let (mut flooded, _) = sealing_node(&DissemPlane::new(1 << 20), &handled, None, mempool);
        flooded.start(t);
        for seq in 0..400 {
            pool.submit(make_tx(0, 1, seq, 180)).unwrap();
        }
        assert_eq!(flooded.poll(t), Some(t), "the push limit cut the step short");
        assert_eq!(flooded.output().count(), PUSH_LIMIT);
        let next = flooded.poll(t);
        assert!(next > Some(t), "the push limit cut the next step short too: {next:?}");
        assert!(flooded.output().count() > 0);
    }

    /// An under-full batch is open and not yet due; a step that multicasts
    /// a vote seals it at once, and its push is broadcast right behind the
    /// vote, so both leave in one write on every link. The batch is then
    /// proposable and nothing is due any more.
    #[test]
    fn a_multicast_vote_takes_the_open_batch_along() {
        let (plane, pool) = (DissemPlane::new(1 << 20), Arc::new(Mempool::new(MempoolConfig::default())));
        let (mut node, _) = answering_node(&plane, &pool);
        let t = SimTime(1_000_000);
        node.start(t);
        pool.submit(make_tx(t.0, 1, 0, 180)).unwrap();
        assert_eq!(node.poll(t), Some(t + LINGER), "the batch is open");
        let at = t + SimDuration(1_000);
        node.handle([(at, inbound(opt_propose()))]);
        assert_eq!(node.poll(at), Some(at), "only the vote's self-copy waits");
        assert_eq!(emitted(&mut node), ["vote", "batch-push"]);
        assert!(pool.is_empty());
        let offer = plane.pool.proposable(usize::MAX);
        assert_eq!(offer.len(), 1);
        assert_eq!(offer[0].bytes, 180 + BATCH_TX_OVERHEAD as u64);
    }

    /// A vote the gate releases when the proposal's batch arrives is cast
    /// in the seal step, after the due batches were polled: it still takes
    /// the open batch along, in the same step.
    #[test]
    fn a_vote_the_gate_releases_takes_the_open_batch_along() {
        let (plane, pool) = (DissemPlane::new(1 << 20), Arc::new(Mempool::new(MempoolConfig::default())));
        let (mut node, _) = answering_node(&plane, &pool);
        let t = SimTime(1_000_000);
        node.start(t);
        pool.submit(make_tx(t.0, 1, 0, 180)).unwrap();
        assert_eq!(node.poll(t), Some(t + LINGER));
        let block = Block::build(View(1), NodeId(1), &Block::genesis(), Payload::batches(vec![batch_ref(1)]));
        let at = t + SimDuration(1_000);
        node.handle([(at, inbound(Message::OptPropose { block, view: View(1) }))]);
        node.poll(at);
        assert!(emitted(&mut node).is_empty(), "the proposal is gated");
        arrive(&mut node, 1);
        node.poll(at + SimDuration(1_000));
        assert_eq!(emitted(&mut node), ["vote", "batch-push"]);
        assert!(pool.is_empty());
    }

    /// A step that only unicasts, or emits nothing, leaves the open batch
    /// to its due time: there a push would cost writes of its own.
    #[test]
    fn a_unicast_or_a_silent_step_leaves_the_batch_open() {
        let (plane, pool) = (DissemPlane::new(1 << 20), Arc::new(Mempool::new(MempoolConfig::default())));
        let (mut node, _) = answering_node(&plane, &pool);
        let t = SimTime(1_000_000);
        node.start(t);
        pool.submit(make_tx(t.0, 1, 0, 180)).unwrap();
        let due = t + LINGER;
        assert_eq!(node.poll(t), Some(due));
        let at = t + SimDuration(1_000);
        node.handle([(at, inbound(peer_vote()))]);
        assert_eq!(node.poll(at), Some(due));
        assert_eq!(emitted(&mut node), ["send vote"]);
        let msg = Message::BlockRequest { block_id: Block::genesis().id() };
        node.handle([(at + SimDuration(1_000), inbound(msg))]);
        assert_eq!(node.poll(at + SimDuration(1_000)), Some(due));
        assert!(emitted(&mut node).is_empty());
        assert_eq!(pool.len(), 1, "still open");
        assert_eq!(node.poll(due), Some(t + STALL));
        assert_eq!(emitted(&mut node), ["batch-push"]);
    }

    /// A leader's proposal and the seal riding on it share a step: the
    /// proposal was built before the batch entered the pool, so it carries
    /// the batch sealed earlier and not the riding one; the next proposal
    /// carries the riding one. Either way the push precedes any proposal
    /// that names its batch.
    #[test]
    fn a_riding_batch_waits_for_the_next_proposal() {
        let (plane, pool) = (DissemPlane::new(1 << 20), Arc::new(Mempool::new(MempoolConfig::default())));
        let (mut node, proposed) = answering_node(&plane, &pool);
        let t = SimTime(1_000_000);
        node.start(t);
        pool.submit(make_tx(t.0, 1, 0, 180)).unwrap();
        let due = node.poll(t).expect("the first batch is open");
        node.poll(due);
        assert_eq!(emitted(&mut node), ["batch-push"]);
        let first = plane.pool.proposable(usize::MAX);
        assert_eq!(first.len(), 1);

        pool.submit(make_tx(due.0, 1, 1, 180)).unwrap();
        assert_eq!(node.poll(due), Some(due + LINGER), "the second batch is open");
        let certificate = || inbound(Message::Certificate(QuorumCertificate::genesis()));
        let at = due + SimDuration(1_000);
        node.handle([(at, certificate())]);
        node.poll(at);
        assert_eq!(emitted(&mut node), ["opt-propose", "batch-push"]);
        let second = plane.pool.proposable(usize::MAX);
        assert_eq!(second.len(), 1);
        assert_ne!(second, first);
        assert_eq!(*proposed.lock().unwrap(), std::slice::from_ref(&first));

        node.handle([(at + SimDuration(1_000), certificate())]);
        node.poll(at + SimDuration(1_000));
        // (The vote answers the node's own proposal, taken in first.)
        assert_eq!(emitted(&mut node), ["vote", "opt-propose"]);
        assert_eq!(*proposed.lock().unwrap(), [first, second]);
    }

    /// At the backlog cap a multicast seals nothing: the data plane stays
    /// within its lead over the ordering plane.
    #[test]
    fn at_the_backlog_cap_a_multicast_seals_nothing() {
        let (plane, pool) = (DissemPlane::new(1 << 20), Arc::new(Mempool::new(MempoolConfig::default())));
        let (mut node, _) = answering_node(&plane, &pool);
        let backlog = BatchRef { digest: Digest::hash(b"backlog"), bytes: DISSEM_BACKLOG_CAP };
        plane.pool.stored(backlog, true);
        assert_eq!(plane.backlog_bytes(), DISSEM_BACKLOG_CAP);
        let t = SimTime(1_000_000);
        node.start(t);
        pool.submit(make_tx(t.0, 1, 0, 180)).unwrap();
        assert_eq!(node.poll(t), Some(t + STALL), "nothing seals at the cap");
        let at = t + SimDuration(1_000);
        node.handle([(at, inbound(opt_propose()))]);
        assert_eq!(node.poll(at), Some(at));
        assert_eq!(emitted(&mut node), ["vote"]);
        assert_eq!(pool.len(), 1);
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
