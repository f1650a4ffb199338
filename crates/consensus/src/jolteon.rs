//! The Jolteon baseline (Gelashvili et al., FC 2022), as evaluated against
//! in §VI of the Moonshot paper.
//!
//! Jolteon is a linear, chained, 2-chain-commit protocol in the
//! leader-speaks-once setting:
//!
//! * votes for round `r` are *unicast to the leader of round `r+1`*, which
//!   aggregates them into a QC and embeds it in its own proposal — O(n)
//!   steady state, but a designated aggregator;
//! * a block commits when two QCs for consecutive rounds certify a
//!   parent/child pair; replicas only learn QCs from later proposals, so the
//!   minimum commit latency is 5δ and the block period 2δ;
//! * the view change is quadratic: timeouts (carrying the sender's high-QC)
//!   are multicast and every node assembles the TC.
//!
//! Because the vote aggregator for round `r` is the *next* leader rather
//! than the original proposer, a Byzantine successor can swallow the votes
//! and prevent the certificate from ever forming: Jolteon is **not reorg
//! resilient**, which is exactly what the paper's `WJ` schedule exploits.

use std::collections::{BTreeMap, HashMap, HashSet};

use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{
    Block, NodeId, Payload, QuorumCertificate, SignedTimeout, SignedVote, TimeoutCertificate,
    View, Vote, VoteKind,
};

use crate::aggregator::{TimeoutAggregator, VoteAggregator};
use crate::chainstate::{ChainState, CommitRule};
use crate::sync::{self, BlockFetcher};
use crate::message::Message;
use crate::protocol::{ConsensusProtocol, NodeConfig, Output, TimerToken};
use crate::verify::PreVerified;

/// How many rounds of vote/timeout state to retain behind the current round.
const GC_MARGIN: u64 = 4;

/// The Jolteon state machine for one node (rounds are represented as views).
pub struct Jolteon {
    cfg: NodeConfig,
    chain: ChainState,
    votes: VoteAggregator,
    timeouts: TimeoutAggregator,
    /// Current round.
    round: View,
    /// Highest round voted in (each node votes at most once per round).
    last_voted_round: View,
    /// Rounds for which a timeout has been multicast.
    sent_timeouts: HashSet<View>,
    /// Whether this node (as leader) proposed in the current round.
    proposed: bool,
    payload_cache: HashMap<View, Payload>,
    pending: BTreeMap<View, Vec<(NodeId, Message)>>,
    /// Outstanding fetches for certified-but-missing blocks.
    fetcher: BlockFetcher,
}

impl std::fmt::Debug for Jolteon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Jolteon")
            .field("node", &self.cfg.node_id)
            .field("round", &self.round)
            .field("high_qc", &self.chain.high_qc().view())
            .finish()
    }
}

impl Jolteon {
    /// Creates a Jolteon node.
    pub fn new(cfg: NodeConfig) -> Self {
        Self::with_rule(cfg, CommitRule::TwoChain)
    }

    /// Creates a chained-HotStuff-style node: identical steady state and
    /// pacemaker, but commits require a *3-chain* of consecutive certified
    /// views — the λ = 7δ row of Table I (with the next leader aggregating).
    ///
    /// Note: the original HotStuff achieves O(n) view change through an
    /// abstract pacemaker; this implementation shares Jolteon's quadratic
    /// timeout broadcast, which only makes the comparison conservative for
    /// the Moonshot side (view changes cost the baseline nothing extra in
    /// latency).
    pub fn hotstuff(cfg: NodeConfig) -> Self {
        Self::with_rule(cfg, CommitRule::ThreeChain)
    }

    fn with_rule(mut cfg: NodeConfig, rule: CommitRule) -> Self {
        let recovered = cfg.recover.take();
        let mut fetcher =
            BlockFetcher::new(cfg.node_id, cfg.n(), cfg.fetch_retry.resolve(cfg.delta));
        if let Some(src) = cfg.local_blocks.clone() {
            fetcher.set_local_source(src);
        }
        let mut node = Jolteon {
            cfg,
            chain: ChainState::with_rule(rule),
            votes: VoteAggregator::new(),
            timeouts: TimeoutAggregator::new(),
            round: View::GENESIS,
            last_voted_round: View::GENESIS,
            sent_timeouts: HashSet::new(),
            proposed: false,
            payload_cache: HashMap::new(),
            pending: BTreeMap::new(),
            fetcher,
        };
        if let Some(rec) = recovered {
            if !rec.is_empty() {
                node.apply_recovery(rec);
            }
        }
        node
    }

    /// Restores durable state after a crash. The WAL's vote floor becomes
    /// `last_voted_round` — every vote rule already guards on
    /// `pv > self.last_voted_round`, so a recovered node can never revote a
    /// round its previous incarnation voted (or timed out) in. Committed
    /// blocks are preloaded into the tree and committed silently so only the
    /// post-restart tail is re-emitted as commit output.
    fn apply_recovery(&mut self, rec: crate::protocol::RecoveredState) {
        self.last_voted_round = rec.voted_view.max(rec.timeout_view);
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
        }
    }

    /// Round timer: 4Δ (Table I).
    fn round_timer(&self) -> SimDuration {
        self.cfg.delta * 4
    }

    /// The node's high-QC.
    pub fn high_qc(&self) -> &QuorumCertificate {
        self.chain.high_qc()
    }

    /// Shared chain state (for inspection in tests).
    pub fn chain(&self) -> &ChainState {
        &self.chain
    }

    /// Whether this node runs the 3-chain (HotStuff) commit rule.
    fn three_chain(&self) -> bool {
        self.chain.rule() == CommitRule::ThreeChain
    }

    /// The (fixed) payload of this node's block for `round`, first drawn
    /// for a block extending `parent`.
    fn payload_for(&mut self, round: View, parent: moonshot_types::BlockId) -> Payload {
        if let Some(p) = self.payload_cache.get(&round) {
            return p.clone();
        }
        let p = self.chain.fresh_or_empty(parent, self.cfg.payloads.payload_for(round));
        self.payload_cache.insert(round, p.clone());
        p
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

    // === Certificates ====================================================

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
        if qc.view() >= self.round {
            self.enter_round(qc.view().next(), Some(qc.clone()), None, now, out);
        }
    }

    fn on_tc(&mut self, tc: &TimeoutCertificate, verify: bool, now: SimTime, out: &mut Vec<Output>) {
        if verify && !self.cfg.check_tc(tc) {
            return;
        }
        if let Some(qc) = tc.high_qc() {
            self.on_qc(&qc.clone(), now, out);
        }
        if tc.view() >= self.round {
            self.enter_round(tc.view().next(), None, Some(tc.clone()), now, out);
        }
    }

    // === Rounds ==========================================================

    fn enter_round(
        &mut self,
        r: View,
        qc: Option<QuorumCertificate>,
        tc: Option<TimeoutCertificate>,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        if r <= self.round {
            return;
        }
        self.round = r;
        self.proposed = false;
        out.push(Output::SetTimer { token: TimerToken::ViewTimer(r), after: self.round_timer() });
        if self.cfg.is_leader(r) && !self.proposed {
            self.proposed = true;
            // Happy path: extend the newly certified block. After a
            // timeout: extend our high-QC (the TC proves it is high
            // enough). Round 1: extend genesis.
            let (justify, tc) = match (qc, tc) {
                (Some(qc), _) => (qc, None),
                (None, Some(tc)) => (self.chain.high_qc().clone(), Some(tc)),
                (None, None) => (QuorumCertificate::genesis(), None),
            };
            let payload = self.payload_for(r, justify.block_id());
            let block = Block::from_parts(
                r,
                justify.block_height().child(),
                justify.block_id(),
                self.cfg.node_id,
                payload,
            );
            self.store_block(block.clone(), now, out);
            out.push(Output::Multicast(match tc {
                Some(tc) => Message::FbPropose { block, justify, tc, view: r },
                None => Message::Propose { block, justify, view: r },
            }));
        }
        self.gc();
        self.replay_pending(now, out);
    }

    fn gc(&mut self) {
        let horizon = View(self.round.0.saturating_sub(GC_MARGIN));
        self.cfg.verified_cache.gc_below(horizon.0);
        self.votes.gc(horizon);
        self.timeouts.gc(horizon);
        self.chain.gc(horizon);
        self.payload_cache.retain(|v, _| *v >= horizon);
        self.pending = self.pending.split_off(&self.round);
    }

    fn replay_pending(&mut self, now: SimTime, out: &mut Vec<Output>) {
        if let Some(msgs) = self.pending.remove(&self.round) {
            for (from, msg) in msgs {
                out.extend(self.handle_message(from, msg, now));
            }
        }
    }

    fn buffer(&mut self, round: View, from: NodeId, msg: Message) {
        self.pending.entry(round).or_default().push((from, msg));
    }

    // === Proposals and voting ============================================

    fn valid_proposal_shape(&self, from: NodeId, block: &Block, pv: View) -> bool {
        from == self.cfg.leader(pv)
            && block.proposer() == self.cfg.leader(pv)
            && block.view() == pv
            && block.header_is_valid()
            && self.cfg.check_payload(block)
    }

    fn cast_vote(&mut self, block: &Block, out: &mut Vec<Output>) {
        self.last_voted_round = block.view();
        // No vote for a block that would commit a batch twice (or might:
        // see `refs_are_fresh`). The round's vote is spent all the same.
        if !self.chain.refs_are_fresh(block.parent_id(), block.payload()) {
            return;
        }
        self.cfg.persist_vote(block.view(), self.chain.high_qc());
        let vote = Vote {
            kind: VoteKind::Normal,
            block_id: block.id(),
            block_height: block.height(),
            view: block.view(),
        };
        let signed = SignedVote::sign(vote, self.cfg.node_id, &self.cfg.keypair);
        // Linear: the vote goes only to the next leader, who aggregates.
        let aggregator = self.cfg.leader(block.view().next());
        out.push(Output::Send(aggregator, Message::Vote(signed)));
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
        self.on_qc(&justify.clone(), now, out);
        if pv > self.round {
            self.buffer(pv, from, Message::Propose { block, justify, view: pv });
            return;
        }
        if !self.valid_proposal_shape(from, &block, pv) {
            return;
        }
        self.store_block(block.clone(), now, out);
        if pv < self.round {
            return;
        }
        // Vote rule (happy path): r = qc.round + 1, once per round, no
        // timeout sent for this round.
        let direct = block.parent_id() == justify.block_id()
            && block.height() == justify.block_height().child();
        if justify.view().next() == pv
            && pv > self.last_voted_round
            && direct
            && !self.sent_timeouts.contains(&pv)
        {
            self.cast_vote(&block, out);
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the message's fields
    fn on_fb_propose(
        &mut self,
        from: NodeId,
        block: Block,
        justify: QuorumCertificate,
        tc: TimeoutCertificate,
        pv: View,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        if !self.cfg.check_tc(&tc) {
            return;
        }
        self.on_qc(&justify.clone(), now, out);
        self.on_tc(&tc, false, now, out);
        if pv > self.round {
            self.buffer(pv, from, Message::FbPropose { block, justify, tc, view: pv });
            return;
        }
        if tc.view().next() != pv || !self.valid_proposal_shape(from, &block, pv) {
            return;
        }
        self.store_block(block.clone(), now, out);
        if pv < self.round {
            return;
        }
        // Vote rule (fallback): justify must rank at least the TC's highest
        // QC.
        let direct = block.parent_id() == justify.block_id()
            && block.height() == justify.block_height().child();
        let floor = tc.high_qc().map_or(View::GENESIS, |qc| qc.view());
        if pv > self.last_voted_round
            && direct
            && justify.view() >= floor
            && !self.sent_timeouts.contains(&pv)
        {
            self.cast_vote(&block, out);
        }
    }

    // === Timeouts ========================================================

    fn send_timeout(&mut self, r: View, out: &mut Vec<Output>) {
        self.sent_timeouts.insert(r);
        self.cfg.persist_timeout(r, self.chain.high_qc());
        let st = SignedTimeout::sign(
            r,
            Some(self.chain.high_qc().clone()),
            self.cfg.node_id,
            &self.cfg.keypair,
        );
        out.push(Output::Multicast(Message::Timeout(st)));
    }

    fn on_timeout_msg(&mut self, st: SignedTimeout, now: SimTime, out: &mut Vec<Output>) {
        if !self.cfg.check_timeout(&st) {
            return;
        }
        if let Some(qc) = st.lock.clone() {
            self.on_qc(&qc, now, out);
        }
        let view = st.view();
        let progress = self.timeouts.add(st, &self.cfg.keyring);
        if progress.amplify && view >= self.round && !self.sent_timeouts.contains(&view) {
            self.send_timeout(view, out);
        }
        if let Some(tc) = progress.certificate {
            self.cfg.mark_verified_tc(&tc);
            self.on_tc(&tc, false, now, out);
        }
    }
}

impl ConsensusProtocol for Jolteon {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.enter_round(View::FIRST, None, None, now, &mut out);
        out
    }

    fn handle_message(&mut self, from: NodeId, message: Message, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        match message {
            Message::Propose { block, justify, view } => {
                self.on_propose(from, block, justify, view, now, &mut out)
            }
            Message::FbPropose { block, justify, tc, view } => {
                self.on_fb_propose(from, block, justify, tc, view, now, &mut out)
            }
            Message::Vote(sv) => {
                // Only the designated aggregator receives votes; aggregate
                // and, on quorum, advance and propose.
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
            // Moonshot-specific messages are ignored.
            Message::OptPropose { .. }
            | Message::CompactPropose { .. }
            | Message::Status { .. }
            | Message::CommitVote(_) => {}
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
            TimerToken::ViewTimer(r) if r == self.round => {
                self.send_timeout(r, &mut out);
                out.push(Output::SetTimer {
                    token: TimerToken::ViewTimer(r),
                    after: self.round_timer(),
                });
            }
            TimerToken::FetchTimer => self.fetcher.on_timer(now, &mut out),
            _ => {}
        }
        out
    }

    fn current_view(&self) -> View {
        self.round
    }

    fn locked_view(&self) -> View {
        self.high_qc().view()
    }

    fn name(&self) -> &'static str {
        if self.three_chain() {
            "hotstuff"
        } else {
            "jolteon"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::LocalNet;

    fn jolteon_net(n: usize, latency_ms: u64, delta_ms: u64) -> LocalNet {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..n)
            .map(|i| {
                Box::new(Jolteon::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    n,
                    SimDuration::from_millis(delta_ms),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(latency_ms))
    }

    #[test]
    fn happy_path_commits() {
        let mut net = jolteon_net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        for i in 0..4u16 {
            assert!(
                net.committed(NodeId(i)).len() >= 10,
                "node {i}: {}",
                net.committed(NodeId(i)).len()
            );
        }
    }

    #[test]
    fn logs_consistent() {
        let mut net = jolteon_net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        let chains: Vec<Vec<_>> = (0..4u16)
            .map(|i| net.committed(NodeId(i)).iter().map(|c| c.block.id()).collect())
            .collect();
        let min_len = chains.iter().map(Vec::len).min().unwrap();
        for pos in 0..min_len {
            assert!(chains.iter().all(|c| c[pos] == chains[0][pos]), "divergence at {pos}");
        }
    }

    #[test]
    fn crashed_leader_recovered_by_timeout() {
        let mut net = jolteon_net(4, 10, 50);
        net.crash(NodeId(1));
        net.run_for(SimDuration::from_secs(4));
        assert!(
            net.committed(NodeId(0)).len() >= 3,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
    }

    #[test]
    fn slower_view_cadence_than_moonshot() {
        // Jolteon needs 2δ per round (propose + vote); Moonshot needs ~δ.
        let mut jolteon = jolteon_net(4, 20, 200);
        jolteon.run_for(SimDuration::from_secs(2));
        let j_views = jolteon.view_of(NodeId(0)).0;

        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(crate::pipelined::PipelinedMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    4,
                    SimDuration::from_millis(200),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        let mut moonshot = LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(20));
        moonshot.run_for(SimDuration::from_secs(2));
        let m_views = moonshot.view_of(NodeId(0)).0;
        assert!(
            m_views as f64 >= 1.5 * j_views as f64,
            "moonshot {m_views} vs jolteon {j_views}"
        );
    }

    #[test]
    fn byzantine_successor_causes_reorg() {
        // Leader of round 2 crashed: the votes for round 1's block go to it
        // and are lost — round 1's block must never commit (no reorg
        // resilience). With n=4 round-robin, node 1 leads rounds 2, 6, 10…
        let mut net = jolteon_net(4, 10, 50);
        net.crash(NodeId(1));
        net.run_for(SimDuration::from_secs(4));
        let committed = net.committed(NodeId(0));
        assert!(!committed.is_empty());
        // The block proposed in round 1 is not in the committed chain.
        assert!(
            committed.iter().all(|c| c.block.view() != View(1)),
            "round-1 block should have been reorged out"
        );
    }
}
