//! Simple Moonshot (§III, Fig. 1).
//!
//! The first Moonshot protocol: pipelined, ω = δ, λ = 3δ, reorg resilient,
//! optimistically responsive under consecutive honest leaders, view length
//! 5Δ. Its distinguishing mechanics:
//!
//! * **Optimistic proposal** — the leader of view `v+1` proposes a child of
//!   `B_k` the moment it *votes* for `B_k` in view `v`, without waiting to
//!   observe `C_v(B_k)`.
//! * **Vote multicasting** — all nodes assemble certificates locally, so the
//!   next proposal and the previous certificate arrive together.
//! * **Locking on view entry** — `lock_i` is updated only while entering a
//!   view, so a status message reports the sender's lock for the whole view.
//! * **2Δ proposal wait** — a leader that enters without `C_{v−1}` waits up
//!   to 2Δ (collecting status messages) before proposing, guaranteeing it
//!   extends the highest lock held by any honest node after GST.

use std::collections::{BTreeMap, HashMap, HashSet};

use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{
    Block, NodeId, Payload, QuorumCertificate, SignedTimeout, SignedVote, TimeoutCertificate,
    View, Vote, VoteKind,
};

use crate::aggregator::{TimeoutAggregator, VoteAggregator};
use crate::chainstate::ChainState;
use crate::sync::{self, BlockFetcher};
use crate::message::Message;
use crate::protocol::{ConsensusProtocol, NodeConfig, Output, RecoveredState, TimerToken};
use crate::verify::PreVerified;

/// How many views of vote/timeout state to retain behind the current view.
const GC_MARGIN: u64 = 4;

/// The Simple Moonshot state machine for one node.
pub struct SimpleMoonshot {
    cfg: NodeConfig,
    chain: ChainState,
    votes: VoteAggregator,
    timeouts: TimeoutAggregator,
    /// Current view `v`.
    view: View,
    /// `lock_i`: updated only on view entry (§III.A).
    lock: QuorumCertificate,
    /// Whether this node has voted in the current view.
    voted: bool,
    /// Highest view a previous incarnation voted in (recovered from the
    /// WAL; [`View::GENESIS`] on a fresh start) — votes in views at or
    /// below it are suppressed.
    voted_floor: View,
    /// Views for which this node has multicast a timeout.
    sent_timeouts: HashSet<View>,
    /// Whether this node (as leader) sent its normal proposal this view.
    proposed_normal: bool,
    /// Fixed payload per view (`b_v` is fixed for a given view, §II.B).
    payload_cache: HashMap<View, Payload>,
    /// Proposals for future views, replayed on entry.
    pending: BTreeMap<View, Vec<(NodeId, Message)>>,
    /// Blocks this node multicast in optimistic proposals, per view.
    opt_blocks: HashMap<View, moonshot_types::BlockId>,
    /// Compact proposals whose block has not arrived yet.
    pending_compact: HashMap<View, (NodeId, moonshot_types::BlockId, QuorumCertificate)>,
    /// Outstanding fetches for certified-but-missing blocks.
    fetcher: BlockFetcher,
}

impl std::fmt::Debug for SimpleMoonshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimpleMoonshot")
            .field("node", &self.cfg.node_id)
            .field("view", &self.view)
            .field("lock", &self.lock.view())
            .field("voted", &self.voted)
            .finish()
    }
}

impl SimpleMoonshot {
    /// Creates a node with the given configuration.
    pub fn new(mut cfg: NodeConfig) -> Self {
        let recovered = cfg.recover.take();
        let mut fetcher =
            BlockFetcher::new(cfg.node_id, cfg.n(), cfg.fetch_retry.resolve(cfg.delta));
        if let Some(src) = cfg.local_blocks.clone() {
            fetcher.set_local_source(src);
        }
        let mut node = SimpleMoonshot {
            cfg,
            chain: ChainState::new(),
            votes: VoteAggregator::new(),
            timeouts: TimeoutAggregator::new(),
            view: View::GENESIS,
            lock: QuorumCertificate::genesis(),
            voted: false,
            voted_floor: View::GENESIS,
            sent_timeouts: HashSet::new(),
            proposed_normal: false,
            payload_cache: HashMap::new(),
            pending: BTreeMap::new(),
            opt_blocks: HashMap::new(),
            pending_compact: HashMap::new(),
            fetcher,
        };
        if let Some(rec) = recovered {
            node.apply_recovery(rec);
        }
        node
    }

    /// Reloads durable state (restart path): committed prefix into the
    /// tree (silently — no re-emitted commits), vote/timeout floors, and
    /// the lock certificate. See `PipelinedMoonshot::apply_recovery`.
    fn apply_recovery(&mut self, rec: RecoveredState) {
        // A timeout for view v also forbids voting in v (Fig. 1, rule 4),
        // so the floor covers both persisted vote and timeout views.
        self.voted_floor = rec.voted_view.max(rec.timeout_view);
        if rec.timeout_view > View::GENESIS {
            self.sent_timeouts.insert(rec.timeout_view);
        }
        let tip = rec.committed.last().map(Block::id);
        for block in rec.committed {
            self.chain.tree.insert(block);
        }
        if let Some(tip) = tip {
            let _ = self.chain.commit_target(tip, View::GENESIS);
        }
        if let Some(lock) = rec.lock {
            let _ = self.chain.register_qc(&lock);
            self.lock = self.chain.high_qc().clone();
        }
    }

    /// View length τ = 5Δ (§III.A).
    fn view_timer(&self) -> SimDuration {
        self.cfg.delta * 5
    }

    /// The leader's proposal wait: 2Δ after entering a view without
    /// `C_{v−1}`.
    fn propose_wait(&self) -> SimDuration {
        self.cfg.delta * 2
    }

    /// The node's current lock (`lock_i`).
    pub fn lock(&self) -> &QuorumCertificate {
        &self.lock
    }

    /// Shared chain state (for inspection in tests).
    pub fn chain(&self) -> &ChainState {
        &self.chain
    }

    /// The (fixed) payload of this node's block for `view`, first drawn for
    /// a block extending `parent`.
    fn payload_for(&mut self, view: View, parent: moonshot_types::BlockId) -> Payload {
        if let Some(p) = self.payload_cache.get(&view) {
            return p.clone();
        }
        let p = self.chain.fresh_or_empty(parent, self.cfg.payloads.payload_for(view));
        self.payload_cache.insert(view, p.clone());
        p
    }

    /// Highest view for which this node has sent a timeout (stops voting).
    fn timed_out_current_view(&self) -> bool {
        self.sent_timeouts.contains(&self.view)
    }


    /// Inserts a block, emits resulting commits, and — if the parent is
    /// missing — walks the chain backwards by fetching it from the child's
    /// proposer (backward state sync for nodes recovering from loss).
    fn store_block(&mut self, block: Block, now: SimTime, out: &mut Vec<Output>) {
        let parent = block.parent_id();
        let proposer = block.proposer();
        out.extend(self.chain.insert_block(block).into_iter().map(Output::Commit));
        if parent != moonshot_crypto::Digest::ZERO && !self.chain.tree.contains(parent) {
            self.fetcher.request(parent, [proposer], now, out);
        }
    }

    // === Certificate handling =============================================

    fn on_qc(&mut self, qc: &QuorumCertificate, now: SimTime, out: &mut Vec<Output>) {
        // Duplicate of an already-registered certificate for a view we have
        // left: nothing can change — skip (and skip re-verification).
        if qc.view() < self.current_view()
            && self.chain.is_registered(qc.view(), qc.block_id())
        {
            return;
        }
        if !self.cfg.check_qc(qc) {
            return;
        }
        let reg = self.chain.register_qc(qc);
        out.extend(reg.committed.into_iter().map(Output::Commit));
        if reg.newly_certified && !qc.is_genesis() && !self.chain.tree.contains(qc.block_id()) {
            let proposer = self.cfg.leader(qc.view());
            self.fetcher.request(qc.block_id(), [proposer], now, out);
        }
        if qc.view() >= self.view {
            self.enter_view(qc.view().next(), Entry::Qc(qc.clone()), now, out);
        } else if qc.view().next() == self.view && self.cfg.is_leader(self.view) && !self.proposed_normal
        {
            // Rule 1(i): the leader entered v without C_{v−1} (via TC) and
            // the certificate arrived within the 2Δ window.
            self.propose_normal(qc.clone(), now, out);
        }
    }

    fn on_tc(&mut self, tc: &TimeoutCertificate, verify: bool, now: SimTime, out: &mut Vec<Output>) {
        if verify && !self.cfg.check_tc(tc) {
            return;
        }
        if let Some(qc) = tc.high_qc() {
            self.on_qc(&qc.clone(), now, out);
        }
        if tc.view() >= self.view {
            self.enter_view(tc.view().next(), Entry::Tc(tc.clone()), now, out);
        }
    }

    // === View transitions ================================================

    fn enter_view(&mut self, v: View, entry: Entry, now: SimTime, out: &mut Vec<Output>) {
        if v <= self.view {
            return;
        }
        // (i) multicast the entry certificate so all honest nodes enter
        // within Δ (view 1 is entered on startup with no certificate).
        match &entry {
            Entry::Qc(qc) if !qc.is_genesis() => out.push(Output::Multicast(Message::Certificate(qc.clone()))),
            Entry::Tc(tc) => out.push(Output::Multicast(Message::TimeoutCert(tc.clone()))),
            _ => {}
        }
        // (ii) update lock_i to the highest ranked certificate seen so far.
        self.lock = self.chain.high_qc().clone();
        // (iii) report the lock to the new leader if it is stale.
        let leader = self.cfg.leader(v);
        if self.lock.view().next() < v && leader != self.cfg.node_id {
            out.push(Output::Send(
                leader,
                Message::Status { view: v, lock: self.lock.clone() },
            ));
        }
        // (iv) enter v; (v) reset the view timer.
        self.view = v;
        self.voted = false;
        self.proposed_normal = false;
        out.push(Output::SetTimer { token: TimerToken::ViewTimer(v), after: self.view_timer() });

        if self.cfg.is_leader(v) {
            match self.chain.qc_for(v.prev().expect("v ≥ 1")) {
                Some(qc) => {
                    let qc = qc.clone();
                    self.propose_normal(qc, now, out);
                }
                None => out.push(Output::SetTimer {
                    token: TimerToken::ProposeTimer(v),
                    after: self.propose_wait(),
                }),
            }
        }

        self.gc();
        self.replay_pending(now, out);
    }

    fn gc(&mut self) {
        let horizon = View(self.view.0.saturating_sub(GC_MARGIN));
        self.cfg.verified_cache.gc_below(horizon.0);
        self.votes.gc(horizon);
        self.timeouts.gc(horizon);
        self.chain.gc(horizon);
        self.payload_cache.retain(|v, _| *v >= horizon);
        self.opt_blocks.retain(|v, _| *v >= horizon);
        self.pending_compact.retain(|v, _| *v >= horizon);
        self.pending = self.pending.split_off(&self.view);
    }

    fn replay_pending(&mut self, now: SimTime, out: &mut Vec<Output>) {
        if let Some(msgs) = self.pending.remove(&self.view) {
            for (from, msg) in msgs {
                out.extend(self.handle_message(from, msg, now));
            }
        }
    }

    // === Proposing =======================================================

    fn propose_normal(&mut self, justify: QuorumCertificate, now: SimTime, out: &mut Vec<Output>) {
        if self.proposed_normal {
            return;
        }
        self.proposed_normal = true;
        let payload = self.payload_for(self.view, justify.block_id());
        let block = Block::from_parts(
            self.view,
            justify.block_height().child(),
            justify.block_id(),
            self.cfg.node_id,
            payload,
        );
        // The leader stores its own proposal immediately — it must be able
        // to serve sync requests for it even if its loopback copy is lost.
        self.store_block(block.clone(), now, out);
        // If this block is bit-identical to the optimistic proposal already
        // multicast for this view, send only the reference (the payload was
        // already disseminated).
        if self.opt_blocks.get(&self.view) == Some(&block.id()) {
            out.push(Output::Multicast(Message::CompactPropose {
                block_id: block.id(),
                justify,
                view: self.view,
            }));
        } else {
            out.push(Output::Multicast(Message::Propose { block, justify, view: self.view }));
        }
    }

    // === Voting ==========================================================

    fn can_vote(&self) -> bool {
        !self.voted && !self.timed_out_current_view()
    }

    fn do_vote(&mut self, block: &Block, now: SimTime, out: &mut Vec<Output>) {
        if self.view <= self.voted_floor {
            return;
        }
        self.voted = true;
        // No vote for a block that would commit a batch twice (or might:
        // see `refs_are_fresh`). The view's vote is spent all the same.
        if self.chain.refs_are_fresh(block.parent_id(), block.payload()) {
            self.cfg.persist_vote(self.view, self.chain.high_qc());
            let vote = Vote {
                kind: VoteKind::Normal,
                block_id: block.id(),
                block_height: block.height(),
                view: self.view,
            };
            let signed = SignedVote::sign(vote, self.cfg.node_id, &self.cfg.keypair);
            out.push(Output::Multicast(Message::Vote(signed)));
        }
        // Optimistic proposal: the leader of v+1 extends the block it just
        // voted for, hoping it becomes certified.
        let next = self.view.next();
        if self.cfg.is_leader(next) {
            let payload = self.payload_for(next, block.id());
            let child = Block::build(next, self.cfg.node_id, block, payload);
            self.opt_blocks.insert(next, child.id());
            self.store_block(child.clone(), now, out);
            out.push(Output::Multicast(Message::OptPropose { block: child, view: next }));
        }
    }

    fn on_opt_propose(&mut self, from: NodeId, block: Block, pv: View, now: SimTime, out: &mut Vec<Output>) {
        if pv > self.view {
            self.buffer(pv, from, Message::OptPropose { block, view: pv });
            return;
        }
        if !self.valid_proposal_shape(from, &block, pv) {
            return;
        }
        self.store_block(block.clone(), now, out);
        // A compact (normal) proposal may have arrived before this block.
        if let Some((cfrom, cid, cjustify)) = self.pending_compact.get(&pv).cloned() {
            if cid == block.id() {
                self.pending_compact.remove(&pv);
                self.try_rule_b_vote(cfrom, block.clone(), cjustify, pv, now, out);
            }
        }
        if pv < self.view {
            return;
        }
        // Vote rule (a): lock_i = C_{v−1}(B_{k−1}).
        if self.can_vote()
            && self.lock.view().next() == pv
            && block.parent_id() == self.lock.block_id()
            && block.height() == self.lock.block_height().child()
        {
            self.do_vote(&block, now, out);
        }
    }

    fn on_propose(
        &mut self,
        from: NodeId,
        block: Block,
        justify: QuorumCertificate,
        pv: View,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        // Process the embedded certificate first (Advance View / commits).
        self.on_qc(&justify.clone(), now, out);
        if pv > self.view {
            self.buffer(pv, from, Message::Propose { block, justify, view: pv });
            return;
        }
        if !self.valid_proposal_shape(from, &block, pv) {
            return;
        }
        self.store_block(block.clone(), now, out);
        if pv < self.view {
            return;
        }
        self.try_rule_b_vote(from, block, justify, pv, now, out);
    }

    /// Vote rule (b): justify ranks at least lock_i and B_k extends B_h.
    fn try_rule_b_vote(
        &mut self,
        from: NodeId,
        block: Block,
        justify: QuorumCertificate,
        pv: View,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        if pv != self.view || !self.valid_proposal_shape(from, &block, pv) {
            return;
        }
        if self.can_vote()
            && justify.ranks_at_least(&self.lock)
            && block.parent_id() == justify.block_id()
            && block.height() == justify.block_height().child()
        {
            self.do_vote(&block, now, out);
        }
    }

    /// Handles a compact normal proposal (block already disseminated via the
    /// optimistic proposal of this view).
    fn on_compact_propose(
        &mut self,
        from: NodeId,
        block_id: moonshot_types::BlockId,
        justify: QuorumCertificate,
        pv: View,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        self.on_qc(&justify.clone(), now, out);
        if pv > self.view {
            self.buffer(pv, from, Message::CompactPropose { block_id, justify, view: pv });
            return;
        }
        if pv < self.view {
            return;
        }
        match self.chain.tree.get(block_id).cloned() {
            Some(block) => self.try_rule_b_vote(from, block, justify, pv, now, out),
            None => {
                self.pending_compact.insert(pv, (from, block_id, justify));
            }
        }
    }

    fn valid_proposal_shape(&self, from: NodeId, block: &Block, pv: View) -> bool {
        from == self.cfg.leader(pv)
            && block.proposer() == self.cfg.leader(pv)
            && block.view() == pv
            && block.header_is_valid()
            && self.cfg.check_payload(block)
    }

    fn buffer(&mut self, view: View, from: NodeId, msg: Message) {
        self.pending.entry(view).or_default().push((from, msg));
    }

    // === Timeouts ========================================================

    fn send_timeout(&mut self, v: View, out: &mut Vec<Output>) {
        if !self.sent_timeouts.insert(v) {
            return;
        }
        self.cfg.persist_timeout(v, self.chain.high_qc());
        // Simple Moonshot timeouts carry no lock (Fig. 1, rule 4).
        let st = SignedTimeout::sign(v, None, self.cfg.node_id, &self.cfg.keypair);
        out.push(Output::Multicast(Message::Timeout(st)));
    }

    fn on_timeout_msg(&mut self, st: SignedTimeout, now: SimTime, out: &mut Vec<Output>) {
        if !self.cfg.check_timeout(&st) {
            return;
        }
        let view = st.view();
        let progress = self.timeouts.add(st, &self.cfg.keyring);
        // Rule 4: f+1 distinct timeouts for the current view ⇒ stop voting
        // and echo the timeout.
        if progress.amplify && view == self.view {
            self.send_timeout(view, out);
        }
        if let Some(tc) = progress.certificate {
            self.cfg.mark_verified_tc(&tc);
            self.on_tc(&tc, false, now, out);
        }
    }
}

/// How a view was entered.
enum Entry {
    Qc(QuorumCertificate),
    Tc(TimeoutCertificate),
}

impl ConsensusProtocol for SimpleMoonshot {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        // All nodes start in view 1, locked on the genesis certificate.
        self.enter_view(View::FIRST, Entry::Qc(QuorumCertificate::genesis()), now, &mut out);
        out
    }

    fn handle_message(&mut self, from: NodeId, message: Message, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        match message {
            Message::OptPropose { block, view } => {
                self.on_opt_propose(from, block, view, now, &mut out)
            }
            Message::Propose { block, justify, view } => {
                self.on_propose(from, block, justify, view, now, &mut out)
            }
            Message::CompactPropose { block_id, justify, view } => {
                self.on_compact_propose(from, block_id, justify, view, now, &mut out)
            }
            Message::Vote(sv) => {
                if sv.vote.kind == VoteKind::Normal && self.cfg.check_vote(&sv) {
                    if let Some(qc) = self.votes.add(sv, &self.cfg.keyring) {
                        self.cfg.mark_verified_qc(&qc);
                        self.on_qc(&qc, now, &mut out);
                    }
                }
            }
            Message::Timeout(st) => self.on_timeout_msg(st, now, &mut out),
            Message::Certificate(qc) => self.on_qc(&qc, now, &mut out),
            Message::TimeoutCert(tc) => self.on_tc(&tc, true, now, &mut out),
            Message::Status { lock, .. } => self.on_qc(&lock, now, &mut out),
            Message::BlockRequest { block_id } => {
                out.extend(sync::serve_request(&self.chain.tree, from, block_id));
            }
            Message::BlockResponse { block } => {
                if sync::validate_response(&block, |v| self.cfg.leader(v))
                    && self.cfg.check_payload(&block)
                {
                    self.fetcher.fulfilled(block.id());
                    self.store_block(block, now, &mut out);
                }
            }
            // Not part of Simple Moonshot.
            Message::FbPropose { .. } | Message::CommitVote(_) => {}
        }
        out
    }

    fn handle_preverified(
        &mut self,
        from: NodeId,
        message: PreVerified,
        now: SimTime,
    ) -> Vec<Output> {
        let saved = self.cfg.skip_inline_checks;
        self.cfg.skip_inline_checks = true;
        let out = self.handle_message(from, message.into_inner(), now);
        self.cfg.skip_inline_checks = saved;
        out
    }

    fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        match token {
            TimerToken::ViewTimer(v) if v == self.view => {
                // Multicast (or re-multicast — timeouts must survive lossy
                // pre-GST networks) the timeout and re-arm the timer.
                self.sent_timeouts.insert(v);
                self.cfg.persist_timeout(v, self.chain.high_qc());
                let st = SignedTimeout::sign(v, None, self.cfg.node_id, &self.cfg.keypair);
                out.push(Output::Multicast(Message::Timeout(st)));
                out.push(Output::SetTimer {
                    token: TimerToken::ViewTimer(v),
                    after: self.view_timer(),
                });
            }
            TimerToken::ProposeTimer(v)
                if v == self.view && self.cfg.is_leader(v) && !self.proposed_normal =>
            {
                // Rule 1(ii): propose at t + 2Δ extending the highest known
                // certificate.
                let justify = self.chain.high_qc().clone();
                self.propose_normal(justify, now, &mut out);
            }
            TimerToken::FetchTimer => self.fetcher.on_timer(now, &mut out),
            _ => {} // stale token
        }
        out
    }

    fn current_view(&self) -> View {
        self.view
    }

    fn locked_view(&self) -> View {
        self.lock().view()
    }

    fn name(&self) -> &'static str {
        "simple-moonshot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::LocalNet;
    use moonshot_types::time::SimDuration;

    fn net(n: usize, latency_ms: u64, delta_ms: u64) -> LocalNet {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..n)
            .map(|i| {
                Box::new(SimpleMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    n,
                    SimDuration::from_millis(delta_ms),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(latency_ms))
    }

    #[test]
    fn happy_path_commits_blocks() {
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        for i in 0..4u16 {
            let committed = net.committed(NodeId(i));
            assert!(
                committed.len() >= 10,
                "node {i} committed only {} blocks",
                committed.len()
            );
        }
    }

    #[test]
    fn committed_logs_are_consistent() {
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        let chains: Vec<Vec<_>> = (0..4u16)
            .map(|i| net.committed(NodeId(i)).iter().map(|c| c.block.id()).collect())
            .collect();
        let min_len = chains.iter().map(Vec::len).min().unwrap();
        for pos in 0..min_len {
            let first = chains[0][pos];
            assert!(chains.iter().all(|c| c[pos] == first), "divergence at {pos}");
        }
    }

    #[test]
    fn views_advance_at_one_delta_cadence() {
        // ω = δ: with 10ms latency and plenty of time, views should advance
        // roughly every ~10-30ms (loopback + vote aggregation), far faster
        // than the 2δ cadence of QC-waiting protocols.
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(1));
        let v = net.view_of(NodeId(0));
        assert!(v.0 >= 30, "only reached {v} after 1s");
    }

    #[test]
    fn commit_latency_is_about_three_delta() {
        // In steady state a block proposed at t commits at ~t+3δ: proposal
        // (δ) + votes (δ) + child's votes (δ).
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(1));
        let committed = net.committed(NodeId(0));
        assert!(committed.len() > 5);
        // The direct-committed blocks' commit views are one above their own.
        for c in committed.iter().filter(|c| c.direct) {
            assert_eq!(c.commit_view, c.block.view().next());
        }
    }

    #[test]
    fn crashed_leader_is_skipped_via_timeout() {
        let mut net = net(4, 10, 50);
        net.crash(NodeId(1)); // leader of views 2, 6, 10, ...
        net.run_for(SimDuration::from_secs(3));
        // Consensus still commits blocks despite the periodic dead leader.
        assert!(
            net.committed(NodeId(0)).len() >= 3,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
        // Views led by the crashed node were passed via timeout certs.
        assert!(net.view_of(NodeId(0)).0 > 6);
    }

    #[test]
    fn f_crashes_tolerated_n7() {
        let mut net = net(7, 5, 50);
        net.crash(NodeId(2));
        net.crash(NodeId(5));
        net.run_for(SimDuration::from_secs(3));
        for i in [0u16, 1, 3, 4, 6] {
            assert!(
                net.committed(NodeId(i)).len() >= 3,
                "node {i}: {}",
                net.committed(NodeId(i)).len()
            );
        }
    }

    #[test]
    fn one_crash_beyond_f_halts_but_stays_safe() {
        let mut net = net(4, 10, 50);
        net.crash(NodeId(1));
        net.crash(NodeId(2)); // 2 > f = 1: no quorum possible
        net.run_for(SimDuration::from_secs(2));
        assert_eq!(net.committed(NodeId(0)).len(), 0);
        assert_eq!(net.committed(NodeId(3)).len(), 0);
    }

    #[test]
    fn direct_commits_carry_their_block_view() {
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(1));
        let committed = net.committed(NodeId(2));
        let direct: Vec<_> = committed.iter().filter(|c| c.direct).collect();
        assert!(!direct.is_empty());
    }

    #[test]
    fn lossy_network_recovers_after_gst() {
        // Drop everything for the first 500ms, then heal.
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(SimpleMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    4,
                    SimDuration::from_millis(50),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        let policy = Box::new(|_from: NodeId, _to: NodeId, _m: &Message, now: SimTime| {
            if now < SimTime(500_000) {
                None
            } else {
                Some(SimDuration::from_millis(10))
            }
        });
        let mut net = LocalNet::with_policy(nodes, policy);
        net.run_for(SimDuration::from_secs(4));
        assert!(
            net.committed(NodeId(0)).len() >= 5,
            "committed {} after healing",
            net.committed(NodeId(0)).len()
        );
    }
}
