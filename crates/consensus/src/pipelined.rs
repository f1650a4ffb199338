//! Pipelined Moonshot (§IV, Fig. 3) and Commit Moonshot (§V, Fig. 4).
//!
//! Pipelined Moonshot improves on Simple Moonshot in two ways:
//!
//! * **Fallback proposals** — a leader entering view `v` via `TC_{v−1}`
//!   proposes immediately, extending its lock (which provably ranks at least
//!   as high as the highest lock in the TC), instead of waiting 2Δ. This
//!   yields *standard* optimistic responsiveness (Definition 6).
//! * **Continuous locking** — `lock_i` is updated whenever a higher ranked
//!   certificate is received, and timeout messages carry the sender's lock,
//!   making a view length of τ = 3Δ sufficient.
//!
//! Commit Moonshot (Fig. 4) keeps every Pipelined rule and adds an explicit
//! pre-commit phase: upon observing `C_v(B_k)`, nodes multicast a commit
//! vote, and a quorum of commit votes commits `B_k` directly. This replaces
//! a (large) proposal hop with a (small) vote hop on the commit path —
//! λ = β + 2ρ instead of 2β + ρ — and lets a *single* honest leader commit.

use std::collections::{BTreeMap, HashMap, HashSet};

use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{
    Block, BlockId, CommitVote, NodeId, Payload, QuorumCertificate, SignedCommitVote,
    SignedTimeout, SignedVote, TimeoutCertificate, View, Vote, VoteKind,
};

use crate::aggregator::{CommitVoteAggregator, TimeoutAggregator, VoteAggregator};
use crate::chainstate::ChainState;
use crate::sync::{self, BlockFetcher};
use crate::message::Message;
use crate::protocol::{ConsensusProtocol, NodeConfig, Output, RecoveredState, TimerToken};
use crate::verify::PreVerified;

/// How many views of vote/timeout state to retain behind the current view.
const GC_MARGIN: u64 = 4;

/// Feature switches distinguishing the Moonshot variants and ablations.
#[derive(Clone, Copy, Debug)]
pub struct MoonshotOptions {
    /// Enable the explicit pre-commit phase (Commit Moonshot, Fig. 4).
    pub explicit_commits: bool,
    /// Enable optimistic proposals (ablation D1 disables them: leaders then
    /// wait for the certificate, degrading ω from δ to 2δ).
    pub optimistic_proposals: bool,
    /// Leader-speaks-once mode (ablation D4): a leader that already made an
    /// optimistic proposal does not follow up with the normal/fallback
    /// proposal. The paper notes this "naturally sacrifices reorg
    /// resilience because the adversary can cause optimistic proposals to
    /// fail, even after GST" (§III.A).
    pub leader_speaks_once: bool,
}

impl Default for MoonshotOptions {
    fn default() -> Self {
        MoonshotOptions {
            explicit_commits: false,
            optimistic_proposals: true,
            leader_speaks_once: false,
        }
    }
}

/// The Pipelined Moonshot state machine for one node.
pub struct PipelinedMoonshot {
    cfg: NodeConfig,
    opts: MoonshotOptions,
    chain: ChainState,
    votes: VoteAggregator,
    timeouts: TimeoutAggregator,
    commit_votes: CommitVoteAggregator,
    /// Current view `v`.
    view: View,
    /// `timeout_view_i`: the highest view this node has sent a timeout for.
    timeout_view: Option<View>,
    /// Views for which a timeout has been multicast (idempotence).
    sent_timeouts: HashSet<View>,
    /// Highest view a *previous incarnation* voted in (recovered from the
    /// WAL; [`View::GENESIS`] on a fresh start). The node never votes in a
    /// view at or below this floor, so a crash between fsync and multicast
    /// can only suppress a vote, never duplicate one.
    voted_floor: View,
    /// The block opt-voted for in the current view, if any.
    voted_opt: Option<BlockId>,
    /// Whether the once-per-view normal/fallback vote was cast.
    voted_main: bool,
    /// Whether this node (as leader) sent its normal/fallback proposal.
    proposed: bool,
    /// Commit votes already multicast, by `(view, block)`.
    sent_commit_votes: HashSet<(View, BlockId)>,
    /// Fixed payload per view.
    payload_cache: HashMap<View, Payload>,
    /// Proposals for future views, replayed on entry.
    pending: BTreeMap<View, Vec<(NodeId, Message)>>,
    /// Blocks this node multicast in optimistic proposals, per view.
    opt_blocks: HashMap<View, BlockId>,
    /// Compact proposals whose block has not arrived yet.
    pending_compact: HashMap<View, (NodeId, BlockId, QuorumCertificate)>,
    /// Outstanding fetches for certified-but-missing blocks.
    fetcher: BlockFetcher,
}

impl std::fmt::Debug for PipelinedMoonshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedMoonshot")
            .field("node", &self.cfg.node_id)
            .field("view", &self.view)
            .field("lock", &self.chain.high_qc().view())
            .field("timeout_view", &self.timeout_view)
            .finish()
    }
}

impl PipelinedMoonshot {
    /// Creates a Pipelined Moonshot node.
    pub fn new(cfg: NodeConfig) -> Self {
        Self::with_options(cfg, MoonshotOptions::default())
    }

    /// Creates a node with explicit feature switches (Commit Moonshot,
    /// ablations).
    pub fn with_options(mut cfg: NodeConfig, opts: MoonshotOptions) -> Self {
        let recovered = cfg.recover.take();
        let mut fetcher =
            BlockFetcher::new(cfg.node_id, cfg.n(), cfg.fetch_retry.resolve(cfg.delta));
        if let Some(src) = cfg.local_blocks.clone() {
            fetcher.set_local_source(src);
        }
        let mut node = PipelinedMoonshot {
            cfg,
            opts,
            chain: ChainState::new(),
            votes: VoteAggregator::new(),
            timeouts: TimeoutAggregator::new(),
            commit_votes: CommitVoteAggregator::new(),
            view: View::GENESIS,
            timeout_view: None,
            sent_timeouts: HashSet::new(),
            voted_floor: View::GENESIS,
            voted_opt: None,
            voted_main: false,
            proposed: false,
            sent_commit_votes: HashSet::new(),
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

    /// Reloads durable state into a fresh machine (restart path).
    ///
    /// The committed prefix goes straight into the block tree and is
    /// re-marked committed *silently* — no `Output::Commit` is emitted for
    /// blocks the previous incarnation already delivered, so post-restart
    /// commit output is exactly the tail. The vote/timeout floors restore
    /// the safety rules' reference points: this incarnation will never
    /// vote in a view the WAL says was already voted in.
    fn apply_recovery(&mut self, rec: RecoveredState) {
        // A timeout in view v also forbids a later (fallback) vote in v, so
        // the floor covers both persisted vote and timeout views.
        self.voted_floor = rec.voted_view.max(rec.timeout_view);
        if rec.timeout_view > View::GENESIS {
            self.timeout_view = Some(rec.timeout_view);
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
            // Re-registering the lock restores high-QC rank; any commits it
            // implies were durably committed pre-crash and stay silent.
            let _ = self.chain.register_qc(&lock);
        }
    }

    /// View length τ = 3Δ (§IV).
    fn view_timer(&self) -> SimDuration {
        self.cfg.delta * 3
    }

    /// The node's lock (`lock_i`) — continuously tracks the high-QC.
    pub fn lock(&self) -> &QuorumCertificate {
        self.chain.high_qc()
    }

    /// Shared chain state (for inspection in tests).
    pub fn chain(&self) -> &ChainState {
        &self.chain
    }

    /// The (fixed) payload of this node's block for `view`, first drawn for
    /// a block extending `parent`.
    fn payload_for(&mut self, view: View, parent: BlockId) -> Payload {
        if let Some(p) = self.payload_cache.get(&view) {
            return p.clone();
        }
        let p = self.chain.fresh_or_empty(parent, self.cfg.payloads.payload_for(view));
        self.payload_cache.insert(view, p.clone());
        p
    }

    /// `timeout_view_i < v`.
    fn timeout_view_below(&self, v: View) -> bool {
        self.timeout_view.is_none_or(|t| t < v)
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
        // Lock rule: adopt any higher ranked certificate, at any time.
        let reg = self.chain.register_qc(qc);
        out.extend(reg.committed.into_iter().map(Output::Commit));
        if reg.newly_certified && !qc.is_genesis() && !self.chain.tree.contains(qc.block_id()) {
            // Certified but never received: fetch from the proposer.
            let proposer = self.cfg.leader(qc.view());
            self.fetcher.request(qc.block_id(), [proposer], now, out);
        }
        if reg.newly_certified && self.opts.explicit_commits {
            self.pre_commit(qc, out);
        }
        if qc.view() >= self.view {
            self.enter_view_via_qc(qc.clone(), now, out);
        }
    }

    /// Commit Moonshot's pre-commit rules (Fig. 4, rules 1 and 2).
    fn pre_commit(&mut self, qc: &QuorumCertificate, out: &mut Vec<Output>) {
        if !self.timeout_view_below(qc.view()) {
            return;
        }
        let key = (qc.view(), qc.block_id());
        // Direct pre-commit: we are in a view ≤ v.
        let direct = self.view <= qc.view();
        // Indirect pre-commit: we already pre-committed a strict descendant.
        let indirect = !direct
            && self.sent_commit_votes.iter().any(|(_, id)| {
                *id != qc.block_id() && self.chain.tree.extends(*id, qc.block_id())
            });
        if (direct || indirect) && self.sent_commit_votes.insert(key) {
            let vote = CommitVote {
                block_id: qc.block_id(),
                block_height: qc.block_height(),
                view: qc.view(),
            };
            let signed = SignedCommitVote::sign(vote, self.cfg.node_id, &self.cfg.keypair);
            out.push(Output::Multicast(Message::CommitVote(signed)));
        }
    }

    fn on_tc(&mut self, tc: &TimeoutCertificate, verify: bool, now: SimTime, out: &mut Vec<Output>) {
        if verify && !self.cfg.check_tc(tc) {
            return;
        }
        if let Some(qc) = tc.high_qc() {
            self.on_qc(&qc.clone(), now, out);
        }
        // Timeout rule: echo a timeout for the TC's view if we never sent
        // one (keeps TCs forming everywhere without TC multicasting).
        if tc.view() >= self.view && !self.sent_timeouts.contains(&tc.view()) {
            self.send_timeout(tc.view(), out);
        }
        if tc.view() >= self.view {
            self.enter_view_via_tc(tc.clone(), now, out);
        }
    }

    // === View transitions ================================================

    fn enter_view_via_qc(&mut self, qc: QuorumCertificate, now: SimTime, out: &mut Vec<Output>) {
        let v = qc.view().next();
        if v <= self.view {
            return;
        }
        if !qc.is_genesis() {
            out.push(Output::Multicast(Message::Certificate(qc.clone())));
        }
        self.reset_view_state(v, out);
        // Normal Propose: entered via C_{v−1}. If the block is identical to
        // the optimistic proposal already multicast for this view (fixed
        // payloads make it bit-identical), send only the reference instead
        // of paying the payload broadcast twice.
        let already_spoke = self.opts.leader_speaks_once && self.opt_blocks.contains_key(&v);
        if self.cfg.is_leader(v) && !self.proposed && !already_spoke {
            self.proposed = true;
            let payload = self.payload_for(v, qc.block_id());
            let block = Block::from_parts(
                v,
                qc.block_height().child(),
                qc.block_id(),
                self.cfg.node_id,
                payload,
            );
            self.store_block(block.clone(), now, out);
            if self.opt_blocks.get(&v) == Some(&block.id()) {
                out.push(Output::Multicast(Message::CompactPropose {
                    block_id: block.id(),
                    justify: qc,
                    view: v,
                }));
            } else {
                out.push(Output::Multicast(Message::Propose { block, justify: qc, view: v }));
            }
        }
        self.replay_pending(now, out);
    }

    fn enter_view_via_tc(&mut self, tc: TimeoutCertificate, now: SimTime, out: &mut Vec<Output>) {
        let v = tc.view().next();
        if v <= self.view {
            return;
        }
        let leader = self.cfg.leader(v);
        if leader != self.cfg.node_id {
            out.push(Output::Send(leader, Message::TimeoutCert(tc.clone())));
        }
        self.reset_view_state(v, out);
        // Fallback Propose: justify with our lock, which ranks at least as
        // high as the TC's high-QC thanks to the Lock rule above.
        let already_spoke = self.opts.leader_speaks_once && self.opt_blocks.contains_key(&v);
        if self.cfg.is_leader(v) && !self.proposed && !already_spoke {
            self.proposed = true;
            let justify = self.chain.high_qc().clone();
            let payload = self.payload_for(v, justify.block_id());
            let block = Block::from_parts(
                v,
                justify.block_height().child(),
                justify.block_id(),
                self.cfg.node_id,
                payload,
            );
            self.store_block(block.clone(), now, out);
            out.push(Output::Multicast(Message::FbPropose { block, justify, tc, view: v }));
        }
        self.replay_pending(now, out);
    }

    fn reset_view_state(&mut self, v: View, out: &mut Vec<Output>) {
        self.view = v;
        self.voted_opt = None;
        self.voted_main = false;
        self.proposed = false;
        out.push(Output::SetTimer { token: TimerToken::ViewTimer(v), after: self.view_timer() });
        self.gc();
    }

    fn gc(&mut self) {
        let horizon = View(self.view.0.saturating_sub(GC_MARGIN));
        self.cfg.verified_cache.gc_below(horizon.0);
        self.votes.gc(horizon);
        self.timeouts.gc(horizon);
        self.commit_votes.gc(horizon);
        self.chain.gc(horizon);
        self.payload_cache.retain(|v, _| *v >= horizon);
        self.sent_commit_votes.retain(|(v, _)| *v >= horizon);
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

    fn buffer(&mut self, view: View, from: NodeId, msg: Message) {
        self.pending.entry(view).or_default().push((from, msg));
    }

    // === Voting ==========================================================

    fn emit_vote(&mut self, kind: VoteKind, block: &Block, now: SimTime, out: &mut Vec<Output>) {
        // Recovery floor: the WAL says a previous incarnation voted in this
        // view — suppress rather than risk a conflicting second vote.
        if self.view <= self.voted_floor {
            return;
        }
        // No vote for a block that would commit a batch twice (or might:
        // see `refs_are_fresh`). The view's vote is spent all the same.
        if self.chain.refs_are_fresh(block.parent_id(), block.payload()) {
            // Durability before release: the vote must be on disk before it
            // can reach the wire (no-op without a ledger).
            self.cfg.persist_vote(self.view, self.chain.high_qc());
            let vote = Vote {
                kind,
                block_id: block.id(),
                block_height: block.height(),
                view: self.view,
            };
            let signed = SignedVote::sign(vote, self.cfg.node_id, &self.cfg.keypair);
            out.push(Output::Multicast(Message::Vote(signed)));
        }
        // Optimistic Propose: the leader of v+1 extends the block it just
        // voted for (or would have, had it been able to check its refs: a
        // node still fetching the chain leads on time, with an empty block).
        let next = self.view.next();
        if self.opts.optimistic_proposals && self.cfg.is_leader(next) {
            let payload = self.payload_for(next, block.id());
            let child = Block::build(next, self.cfg.node_id, block, payload);
            // Voting twice for the same block (opt-vote then the mandatory
            // normal vote) must not re-multicast the proposal.
            if self.opt_blocks.get(&next) != Some(&child.id()) {
                self.opt_blocks.insert(next, child.id());
                self.store_block(child.clone(), now, out);
                out.push(Output::Multicast(Message::OptPropose { block: child, view: next }));
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

    fn on_opt_propose(
        &mut self,
        from: NodeId,
        block: Block,
        pv: View,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
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
                self.try_normal_vote(cfrom, block.clone(), cjustify, pv, now, out);
            }
        }
        if pv < self.view {
            return;
        }
        // Optimistic Vote (Fig. 3, 2a): (i) timeout_view < v − 1,
        // (ii) lock_i = C_{v−1}(B_{k−1}), (iii) not voted in v.
        let lock = self.chain.high_qc();
        let lock_matches = lock.view().next() == pv
            && lock.block_id() == block.parent_id()
            && lock.block_height().child() == block.height();
        if self.timeout_view_below(View(pv.0.saturating_sub(1)))
            && lock_matches
            && self.voted_opt.is_none()
            && !self.voted_main
        {
            self.voted_opt = Some(block.id());
            self.emit_vote(VoteKind::Optimistic, &block, now, out);
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
        // Advance View and Lock with all embedded certificates first.
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
        self.try_normal_vote(from, block, justify, pv, now, out);
    }

    /// The Normal Vote rule (Fig. 3, 2b-i): justify must be C_{v−1}; (i)
    /// timeout_view < v, (ii) direct extension, (iii) no opt-vote for an
    /// equivocating block. Must vote even after opt-voting the same block.
    fn try_normal_vote(
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
        let direct = block.parent_id() == justify.block_id()
            && block.height() == justify.block_height().child();
        let no_equivocating_opt = self.voted_opt.is_none_or(|id| id == block.id());
        if justify.view().next() == pv
            && self.timeout_view_below(pv)
            && direct
            && no_equivocating_opt
            && !self.voted_main
        {
            self.voted_main = true;
            self.emit_vote(VoteKind::Normal, &block, now, out);
        }
    }

    /// Handles a compact normal proposal: the block must already have been
    /// received via the view's optimistic proposal; if it has not arrived
    /// yet, the reference is parked until it does.
    fn on_compact_propose(
        &mut self,
        from: NodeId,
        block_id: BlockId,
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
            Some(block) => self.try_normal_vote(from, block, justify, pv, now, out),
            None => {
                self.pending_compact.insert(pv, (from, block_id, justify));
            }
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
        // Advance View and Lock with all embedded certificates. The TC may
        // advance us into pv itself.
        self.on_qc(&justify.clone(), now, out);
        self.on_tc(&tc, false, now, out);
        if pv > self.view {
            self.buffer(pv, from, Message::FbPropose { block, justify, tc, view: pv });
            return;
        }
        if tc.view().next() != pv || !self.valid_proposal_shape(from, &block, pv) {
            return;
        }
        self.store_block(block.clone(), now, out);
        if pv < self.view {
            return;
        }
        // Fallback Vote (Fig. 3, 2b-ii): (i) timeout_view < v, (ii) direct
        // extension, (iii) justify ranks ≥ the TC's high-QC. Allowed even
        // after an opt-vote for an equivocating block.
        let direct = block.parent_id() == justify.block_id()
            && block.height() == justify.block_height().child();
        let tc_floor = tc.high_qc().map_or(View::GENESIS, |qc| qc.view());
        if self.timeout_view_below(pv) && direct && justify.view() >= tc_floor && !self.voted_main
        {
            self.voted_main = true;
            self.emit_vote(VoteKind::Fallback, &block, now, out);
        }
    }

    // === Timeouts ========================================================

    fn send_timeout(&mut self, v: View, out: &mut Vec<Output>) {
        if !self.sent_timeouts.insert(v) {
            return;
        }
        self.timeout_view = Some(self.timeout_view.map_or(v, |t| t.max(v)));
        self.cfg.persist_timeout(v, self.chain.high_qc());
        let st = SignedTimeout::sign(
            v,
            Some(self.chain.high_qc().clone()),
            self.cfg.node_id,
            &self.cfg.keypair,
        );
        out.push(Output::Multicast(Message::Timeout(st)));
    }

    fn resend_timeout(&mut self, v: View, out: &mut Vec<Output>) {
        // Used by the re-armed view timer: multicast even if already sent,
        // so timeouts survive lossy pre-GST networks.
        self.sent_timeouts.insert(v);
        self.timeout_view = Some(self.timeout_view.map_or(v, |t| t.max(v)));
        self.cfg.persist_timeout(v, self.chain.high_qc());
        let st = SignedTimeout::sign(
            v,
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
        // Lock rule on the embedded certificate.
        if let Some(qc) = st.lock.clone() {
            self.on_qc(&qc, now, out);
        }
        let view = st.view();
        let progress = self.timeouts.add(st, &self.cfg.keyring);
        // Timeout rule: f+1 distinct timeouts for v' ≥ v ⇒ echo ours.
        if progress.amplify && view >= self.view && !self.sent_timeouts.contains(&view) {
            self.send_timeout(view, out);
        }
        if let Some(tc) = progress.certificate {
            self.cfg.mark_verified_tc(&tc);
            self.on_tc(&tc, false, now, out);
        }
    }

    fn on_commit_vote(&mut self, cv: SignedCommitVote, now: SimTime, out: &mut Vec<Output>) {
        if !self.opts.explicit_commits {
            return;
        }
        if !self.cfg.check_commit_vote(&cv) {
            return;
        }
        let view = cv.vote.view;
        if let Some(block_id) = self.commit_votes.add(cv, &self.cfg.keyring) {
            // Alternative Direct Commit (Fig. 4, rule 3).
            out.extend(
                self.chain.commit_target(block_id, view).into_iter().map(Output::Commit),
            );
            let _ = now;
        }
    }
}

impl ConsensusProtocol for PipelinedMoonshot {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.enter_view_via_qc(QuorumCertificate::genesis(), now, &mut out);
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
            Message::FbPropose { block, justify, tc, view } => {
                self.on_fb_propose(from, block, justify, tc, view, now, &mut out)
            }
            Message::CompactPropose { block_id, justify, view } => {
                self.on_compact_propose(from, block_id, justify, view, now, &mut out)
            }
            Message::Vote(sv) => {
                if self.cfg.check_vote(&sv) {
                    if let Some(qc) = self.votes.add(sv, &self.cfg.keyring) {
                        self.cfg.mark_verified_qc(&qc);
                        self.on_qc(&qc, now, &mut out);
                    }
                }
            }
            Message::Timeout(st) => self.on_timeout_msg(st, now, &mut out),
            Message::Certificate(qc) => self.on_qc(&qc, now, &mut out),
            Message::TimeoutCert(tc) => self.on_tc(&tc, true, now, &mut out),
            Message::CommitVote(cv) => self.on_commit_vote(cv, now, &mut out),
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
            // Status messages belong to Simple Moonshot; still harvest the
            // embedded certificate.
            Message::Status { lock, .. } => self.on_qc(&lock, now, &mut out),
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
                self.resend_timeout(v, &mut out);
                out.push(Output::SetTimer {
                    token: TimerToken::ViewTimer(v),
                    after: self.view_timer(),
                });
            }
            TimerToken::FetchTimer => self.fetcher.on_timer(now, &mut out),
            _ => {}
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
        if self.opts.explicit_commits {
            "commit-moonshot"
        } else if self.opts.leader_speaks_once {
            "pipelined-moonshot-lso"
        } else if self.opts.optimistic_proposals {
            "pipelined-moonshot"
        } else {
            "pipelined-moonshot-no-opt"
        }
    }
}

/// Commit Moonshot (§V): Pipelined Moonshot plus the explicit pre-commit
/// phase of Fig. 4.
///
/// # Examples
///
/// ```
/// use moonshot_consensus::{CommitMoonshot, ConsensusProtocol, NodeConfig};
/// use moonshot_types::time::SimDuration;
/// use moonshot_types::NodeId;
///
/// let cfg = NodeConfig::simulated(NodeId(0), 4, SimDuration::from_millis(100));
/// let node = CommitMoonshot::new(cfg);
/// assert_eq!(node.name(), "commit-moonshot");
/// ```
pub struct CommitMoonshot(PipelinedMoonshot);

impl CommitMoonshot {
    /// Creates a Commit Moonshot node.
    pub fn new(cfg: NodeConfig) -> Self {
        CommitMoonshot(PipelinedMoonshot::with_options(
            cfg,
            MoonshotOptions { explicit_commits: true, optimistic_proposals: true, leader_speaks_once: false },
        ))
    }

    /// The node's lock.
    pub fn lock(&self) -> &QuorumCertificate {
        self.0.lock()
    }

    /// Shared chain state (for inspection in tests).
    pub fn chain(&self) -> &ChainState {
        self.0.chain()
    }
}

impl std::fmt::Debug for CommitMoonshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Commit{:?}", self.0)
    }
}

impl ConsensusProtocol for CommitMoonshot {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        self.0.start(now)
    }
    fn handle_message(&mut self, from: NodeId, message: Message, now: SimTime) -> Vec<Output> {
        self.0.handle_message(from, message, now)
    }
    fn handle_preverified(
        &mut self,
        from: NodeId,
        message: PreVerified,
        now: SimTime,
    ) -> Vec<Output> {
        self.0.handle_preverified(from, message, now)
    }
    fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> Vec<Output> {
        self.0.handle_timer(token, now)
    }
    fn current_view(&self) -> View {
        self.0.current_view()
    }
    fn locked_view(&self) -> View {
        self.0.locked_view()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::LocalNet;

    fn pipelined_net(n: usize, latency_ms: u64, delta_ms: u64) -> LocalNet {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..n)
            .map(|i| {
                Box::new(PipelinedMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    n,
                    SimDuration::from_millis(delta_ms),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(latency_ms))
    }

    fn commit_net(n: usize, latency_ms: u64, delta_ms: u64) -> LocalNet {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..n)
            .map(|i| {
                Box::new(CommitMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    n,
                    SimDuration::from_millis(delta_ms),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(latency_ms))
    }

    /// Inline-path payload integrity: a proposal whose batch references were
    /// swapped under an honest digest (and therefore an honest-looking
    /// block id) must be dropped without a vote, while the honest proposal
    /// is voted for.
    #[test]
    fn inline_path_drops_tampered_payload_proposal() {
        use moonshot_types::Payload;
        let count_votes = |outs: &[Output]| {
            outs.iter()
                .filter(|o| {
                    matches!(
                        o,
                        Output::Multicast(Message::Vote(_)) | Output::Send(_, Message::Vote(_))
                    )
                })
                .count()
        };
        let batch = |tag: u8| moonshot_types::BatchRef {
            digest: moonshot_crypto::Digest::hash(&[tag]),
            bytes: 128,
        };
        let honest_payload = Payload::batches(vec![batch(1)]);
        let tampered_payload = Payload::Batches {
            refs: std::sync::Arc::from(vec![batch(2)]),
            digest: honest_payload.digest(),
        };
        let now = SimTime(0);
        for (payload, expect_vote) in [(tampered_payload, false), (honest_payload, true)] {
            let cfg =
                NodeConfig::simulated(NodeId(0), 4, SimDuration::from_millis(50));
            let mut p = PipelinedMoonshot::new(cfg);
            let _ = p.start(now);
            let v = p.current_view();
            let leader = p.cfg.leader(v);
            let block = Block::build(v, leader, &Block::genesis(), payload);
            assert!(block.header_is_valid());
            let outs = p.handle_message(
                leader,
                Message::OptPropose { view: v, block },
                now,
            );
            assert_eq!(
                count_votes(&outs) > 0,
                expect_vote,
                "tampered proposals must not be voted for; honest ones must"
            );
        }
    }

    #[test]
    fn pipelined_happy_path_commits() {
        let mut net = pipelined_net(4, 10, 100);
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
    fn pipelined_logs_consistent() {
        let mut net = pipelined_net(4, 10, 100);
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
    fn pipelined_recovers_from_crashed_leader_responsively() {
        let mut net = pipelined_net(4, 10, 50);
        net.crash(NodeId(1));
        net.run_for(SimDuration::from_secs(3));
        assert!(
            net.committed(NodeId(0)).len() >= 5,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
    }

    #[test]
    fn commit_moonshot_commits_via_commit_votes() {
        let mut net = commit_net(4, 10, 100);
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
    fn commit_moonshot_single_honest_leader_commits() {
        // Leader schedule: every second leader crashed. Pipelined Moonshot
        // needs two consecutive honest leaders to commit; Commit Moonshot
        // commits under a single honest leader (§V).
        let n = 4;
        let mut net = commit_net(n, 10, 50);
        net.crash(NodeId(1));
        net.crash(NodeId(3)); // > f? n=4, f=1 — two crashes kill liveness.
        net.run_for(SimDuration::from_millis(200));
        // With 2 > f crashes nothing commits; use a 7-node net instead.
        let mut net = commit_net(7, 10, 50);
        net.crash(NodeId(1));
        net.crash(NodeId(3));
        net.run_for(SimDuration::from_secs(4));
        assert!(
            net.committed(NodeId(0)).len() >= 2,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
    }

    #[test]
    fn commit_and_pipelined_agree_under_crashes() {
        for make in [pipelined_net as fn(usize, u64, u64) -> LocalNet, commit_net] {
            let mut net = make(7, 10, 50);
            net.crash(NodeId(6));
            net.run_for(SimDuration::from_secs(2));
            let chains: Vec<Vec<_>> = (0..6u16)
                .map(|i| net.committed(NodeId(i)).iter().map(|c| c.block.id()).collect())
                .collect();
            let min_len = chains.iter().map(Vec::len).min().unwrap();
            assert!(min_len > 0);
            for pos in 0..min_len {
                assert!(chains.iter().all(|c| c[pos] == chains[0][pos]));
            }
        }
    }

    #[test]
    fn optimistic_proposals_ablation_still_live() {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(PipelinedMoonshot::with_options(
                    NodeConfig::simulated(NodeId::from_index(i), 4, SimDuration::from_millis(100)),
                    MoonshotOptions { explicit_commits: false, optimistic_proposals: false, leader_speaks_once: false },
                )) as Box<dyn ConsensusProtocol>
            })
            .collect();
        let mut net = LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(10));
        net.run_for(SimDuration::from_secs(2));
        assert!(net.committed(NodeId(0)).len() >= 5);
    }

    #[test]
    fn ablation_halves_view_cadence() {
        // Without optimistic proposals the view advance needs proposal + vote
        // (2δ); with them it needs only ~δ. Compare views reached.
        let run = |optimistic: bool| {
            let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
                .map(|i| {
                    Box::new(PipelinedMoonshot::with_options(
                        NodeConfig::simulated(
                            NodeId::from_index(i),
                            4,
                            SimDuration::from_millis(200),
                        ),
                        MoonshotOptions {
                            explicit_commits: false,
                            optimistic_proposals: optimistic,
                            leader_speaks_once: false,
                        },
                    )) as Box<dyn ConsensusProtocol>
                })
                .collect();
            let mut net = LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(20));
            net.run_for(SimDuration::from_secs(2));
            net.view_of(NodeId(0)).0
        };
        let with_opt = run(true);
        let without_opt = run(false);
        assert!(
            with_opt as f64 >= 1.5 * without_opt as f64,
            "opt={with_opt} no-opt={without_opt}"
        );
    }

    #[test]
    fn lossy_network_recovers_after_gst() {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(PipelinedMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    4,
                    SimDuration::from_millis(50),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        let policy = Box::new(|_f: NodeId, _t: NodeId, _m: &Message, now: SimTime| {
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
            "committed {}",
            net.committed(NodeId(0)).len()
        );
    }

    #[test]
    fn view_advances_even_when_behind() {
        // A node partitioned from everything but certificates catches up.
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(PipelinedMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    4,
                    SimDuration::from_millis(50),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        // Node 3 receives nothing for 1s, then heals.
        let policy = Box::new(|_f: NodeId, to: NodeId, _m: &Message, now: SimTime| {
            if to == NodeId(3) && now < SimTime(1_000_000) {
                None
            } else {
                Some(SimDuration::from_millis(10))
            }
        });
        let mut net = LocalNet::with_policy(nodes, policy);
        net.run_for(SimDuration::from_secs(3));
        let lagging = net.view_of(NodeId(3));
        let leading = net.view_of(NodeId(0));
        assert!(
            leading.0 - lagging.0 < 5,
            "node 3 stuck at {lagging} vs {leading}"
        );
    }
}
