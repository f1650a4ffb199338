//! The replica core: everything a chain-based rotating-leader protocol
//! does that is *not* one of its numbered rules.
//!
//! The paper states each protocol as a short rule list (Fig. 1, 3, 4) over
//! shared Advance View / Lock / Timeout machinery. [`Replica`] is that
//! machinery, written once: the certified chain and its block fetcher, the
//! vote and timeout aggregators, the current view and its timer, the
//! recovered vote floor, per-view payloads, the future-view buffer, the
//! optimistic / compact proposal bookkeeping, and the outputs of the step
//! being processed. [`SimpleMoonshot`], [`PipelinedMoonshot`] and
//! [`Jolteon`] each *own* a `Replica` and call it; what stays in their
//! files is their own state, their τ, and their vote, propose, advance and
//! commit rules. There is no trait and no callback here — a protocol
//! decides, the core carries out.
//!
//! Every safety-relevant mechanism has one call site, in this file:
//! [`ChainState::refs_are_fresh`], [`NodeConfig::persist_vote`] and the
//! vote signature in [`Replica::vote`]; [`NodeConfig::persist_timeout`] and
//! the timeout signature in [`Replica::send_timeout`]; the sender = leader
//! checks in [`Replica::admit`]. The signature, certificate and payload
//! checks are not here at all: every message has passed the
//! [`MessageVerifier`] built in [`Replica::new`] before a rule sees it.
//!
//! [`SimpleMoonshot`]: crate::SimpleMoonshot
//! [`PipelinedMoonshot`]: crate::PipelinedMoonshot
//! [`Jolteon`]: crate::Jolteon

use std::collections::{BTreeMap, HashMap, HashSet};

use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{
    Block, BlockId, NodeId, Payload, QuorumCertificate, SignedTimeout, SignedVote,
    TimeoutCertificate, View, Vote, VoteKind,
};

use crate::aggregator::{TimeoutAggregator, TimeoutProgress, VoteAggregator};
use crate::chainstate::{ChainState, CommitRule, QcRegistration};
use crate::message::Message;
use crate::protocol::{NodeConfig, Output, RecoveredState, TimerToken};
use crate::sync::{self, BlockFetcher};
use crate::verify::MessageVerifier;

/// How many views of vote / timeout / payload state to retain behind the
/// current view.
const GC_MARGIN: u64 = 4;

/// How many future views hold buffered proposals at once (the nearest
/// win). An honest optimistic proposal is one view ahead of its receiver's
/// certificate; the rest is slack for a receiver that trails its peers.
pub(crate) const BUFFER_VIEWS: usize = 8;

/// How many proposals are buffered per future view. An honest leader sends
/// at most two per view (optimistic, then normal or fallback); the rest is
/// slack for network duplicates.
pub(crate) const BUFFER_PER_VIEW: usize = 4;

/// A well-formed proposal for the current view, as [`Replica::admit`] hands
/// it to a protocol's vote rules.
pub(crate) enum Proposal {
    /// `⟨opt-propose, B_k, v⟩`.
    Optimistic(Block),
    /// `⟨propose, B_k, C(B_h), v⟩`, sent in full or as a reference.
    Normal(Block, QuorumCertificate),
    /// `⟨fb-propose, B_k, C(B_h), TC_{v−1}, v⟩`.
    Fallback(Block, QuorumCertificate, TimeoutCertificate),
}

/// Whether `block` directly extends the block `justify` certifies.
pub(crate) fn extends_certified(block: &Block, justify: &QuorumCertificate) -> bool {
    block.parent_id() == justify.block_id() && block.height() == justify.block_height().child()
}

/// Whether `justify` ranks at least as high as the highest certificate
/// reported in `tc` (the fallback-vote condition of Fig. 3, 2b-ii, and of
/// Jolteon).
pub(crate) fn covers_tc(justify: &QuorumCertificate, tc: &TimeoutCertificate) -> bool {
    justify.view() >= tc.high_qc().map_or(View::GENESIS, |qc| qc.view())
}

/// One node's protocol-independent state.
pub(crate) struct Replica {
    /// Identity, keys, election, Δ, payload source, durability hooks.
    pub(crate) cfg: NodeConfig,
    /// The only signature check a message meets before the rules see it
    /// (over `cfg`'s keyring, sharing its cache).
    pub(crate) verifier: MessageVerifier,
    /// The certified chain: block tree, certificates, high-QC, commit rule.
    pub(crate) chain: ChainState,
    votes: VoteAggregator,
    timeouts: TimeoutAggregator,
    /// Current view (round, in Jolteon).
    view: View,
    /// Views for which this node has multicast a timeout.
    sent_timeouts: HashSet<View>,
    /// Highest view a *previous incarnation* voted or timed out in
    /// (recovered from the WAL; [`View::GENESIS`] on a fresh start). The
    /// node never votes at or below it, so a crash between fsync and
    /// multicast can only suppress a vote, never duplicate one.
    vote_floor: View,
    /// Fixed payload per view (`b_v` is fixed for a given view, §II.B).
    payload_cache: HashMap<View, Payload>,
    /// Proposals for future views, replayed on entry. Only from the view's
    /// leader, bounded by [`BUFFER_VIEWS`] × [`BUFFER_PER_VIEW`].
    pending: BTreeMap<View, Vec<(NodeId, Message)>>,
    /// Blocks this node multicast in optimistic proposals, per view.
    opt_blocks: HashMap<View, BlockId>,
    /// Compact proposals (from the view's leader) whose block has not
    /// arrived yet.
    pending_compact: HashMap<View, (BlockId, QuorumCertificate)>,
    /// Outstanding fetches for certified-but-missing blocks.
    fetcher: BlockFetcher,
    /// The time of the step (one `ConsensusProtocol` call) in progress.
    now: SimTime,
    /// The outputs of the step in progress, in emission order.
    out: Vec<Output>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let high_qc = self.chain.high_qc().view();
        write!(f, "node {:?}, view {}, high-qc {}", self.cfg.node_id, self.view, high_qc)
    }
}

impl Replica {
    /// A replica at [`View::GENESIS`], with whatever `cfg.recover` holds
    /// already reloaded.
    pub(crate) fn new(mut cfg: NodeConfig, rule: CommitRule) -> Self {
        let recovered = cfg.recover.take().unwrap_or_default();
        let mut fetcher =
            BlockFetcher::new(cfg.node_id, cfg.n(), cfg.fetch_retry.resolve(cfg.delta));
        if let Some(src) = cfg.local_blocks.clone() {
            fetcher.set_local_source(src);
        }
        let mut replica = Replica {
            verifier: MessageVerifier::for_config(&cfg),
            cfg,
            chain: ChainState::with_rule(rule),
            votes: VoteAggregator::new(),
            timeouts: TimeoutAggregator::new(),
            view: View::GENESIS,
            sent_timeouts: HashSet::new(),
            vote_floor: View::GENESIS,
            payload_cache: HashMap::new(),
            pending: BTreeMap::new(),
            opt_blocks: HashMap::new(),
            pending_compact: HashMap::new(),
            fetcher,
            now: SimTime::ZERO,
            out: Vec::new(),
        };
        replica.apply_recovery(recovered);
        replica
    }

    /// Reloads durable state (restart path). The committed prefix goes into
    /// the tree and is re-marked committed *silently* — no `Output::Commit`
    /// for blocks the previous incarnation already delivered, so commit
    /// output after a restart is exactly the tail. A timeout in view v also
    /// forbids a later vote in v, so the floor covers both persisted views.
    /// Re-registering the lock restores the high-QC's rank; the commits it
    /// implies were durable before the crash and stay silent too.
    fn apply_recovery(&mut self, rec: RecoveredState) {
        self.vote_floor = rec.voted_view.max(rec.timeout_view);
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

    /// The current view.
    pub(crate) fn view(&self) -> View {
        self.view
    }

    // === One step: a call in, its outputs back ===========================

    /// Starts the step for one `start` / `handle_message` / `handle_timer`
    /// call at `now`; everything below appends to its outputs.
    pub(crate) fn begin_step(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Ends the step, handing its outputs back in emission order.
    pub(crate) fn end_step(&mut self) -> Vec<Output> {
        std::mem::take(&mut self.out)
    }

    /// Multicasts `msg` to all nodes (this one included).
    pub(crate) fn multicast(&mut self, msg: Message) {
        self.out.push(Output::Multicast(msg));
    }

    /// Sends `msg` to one node.
    pub(crate) fn send(&mut self, to: NodeId, msg: Message) {
        self.out.push(Output::Send(to, msg));
    }

    /// Arms a logical timer.
    pub(crate) fn set_timer(&mut self, token: TimerToken, after: SimDuration) {
        self.out.push(Output::SetTimer { token, after });
    }

    // === Certificates and votes ==========================================

    /// Takes in a verified block certificate: skips a duplicate for a view
    /// already left, registers it (which is the Lock rule wherever the lock
    /// tracks the high-QC), emits the commits it completes and fetches its
    /// block if that never arrived. `None` means nothing changed; otherwise
    /// the caller applies its own Advance View rule.
    pub(crate) fn on_certificate(&mut self, qc: &QuorumCertificate) -> Option<QcRegistration> {
        if qc.view() < self.view && self.chain.is_registered(qc.view(), qc.block_id()) {
            return None;
        }
        let mut reg = self.chain.register_qc(qc);
        self.out.extend(reg.committed.drain(..).map(Output::Commit));
        if reg.newly_certified && !qc.is_genesis() && !self.chain.tree.contains(qc.block_id()) {
            let proposer = self.cfg.leader(qc.view());
            self.fetcher.request(qc.block_id(), [proposer], self.now, &mut self.out);
        }
        Some(reg)
    }

    /// Commits `block_id` outright (Commit Moonshot's alternative direct
    /// commit), deferring until the block arrives if it has not.
    pub(crate) fn commit(&mut self, block_id: BlockId, commit_view: View) {
        let committed = self.chain.commit_target(block_id, commit_view);
        self.out.extend(committed.into_iter().map(Output::Commit));
    }

    /// Aggregates a verified vote; the certificate it completes, if any.
    pub(crate) fn add_vote(&mut self, sv: SignedVote) -> Option<QuorumCertificate> {
        let qc = self.votes.add(sv, &self.cfg.keyring)?;
        self.cfg.mark_verified_qc(&qc);
        Some(qc)
    }

    /// Aggregates a verified timeout: whether f + 1 distinct
    /// timeouts for its view have now been seen (amplify), and the TC the
    /// quorum completes.
    pub(crate) fn add_timeout(&mut self, st: SignedTimeout) -> TimeoutProgress {
        let progress = self.timeouts.add(st, &self.cfg.keyring);
        if let Some(tc) = &progress.certificate {
            self.cfg.mark_verified_tc(tc);
        }
        progress
    }

    // === Views ===========================================================

    /// Enters `v`: arms its view timer with `tau` and drops per-view state
    /// more than [`GC_MARGIN`] views back (and buffered proposals for views
    /// skipped). Returns the gc horizon for the caller's own per-view state.
    pub(crate) fn enter_view(&mut self, v: View, tau: SimDuration) -> View {
        self.view = v;
        self.set_timer(TimerToken::ViewTimer(v), tau);
        let horizon = View(v.0.saturating_sub(GC_MARGIN));
        self.cfg.verified_cache.gc_below(horizon.0);
        self.votes.gc(horizon);
        self.timeouts.gc(horizon);
        self.chain.gc(horizon);
        self.sent_timeouts.retain(|t| *t >= horizon);
        self.payload_cache.retain(|p, _| *p >= horizon);
        self.opt_blocks.retain(|p, _| *p >= horizon);
        self.pending_compact.retain(|p, _| *p >= horizon);
        self.pending = self.pending.split_off(&v);
        horizon
    }

    /// Hands back the proposals buffered for the view just entered; the
    /// caller replays them through its own message dispatch.
    pub(crate) fn replay_pending(&mut self) -> Vec<(NodeId, Message)> {
        self.pending.remove(&self.view).unwrap_or_default()
    }

    /// Buffers a proposal for a view this node has not entered yet. The
    /// buffer is attacker-reachable before any rule has run, so it takes
    /// proposals only from the view's leader, at most [`BUFFER_PER_VIEW`] of
    /// them, for the [`BUFFER_VIEWS`] nearest views: a far-future proposal
    /// never displaces a nearer one.
    fn buffer(&mut self, pv: View, from: NodeId, msg: Message) {
        if from != self.cfg.leader(pv) {
            return;
        }
        let slot = self.pending.entry(pv).or_default();
        if slot.len() < BUFFER_PER_VIEW {
            slot.push((from, msg));
        }
        if self.pending.len() > BUFFER_VIEWS {
            self.pending.pop_last();
        }
    }

    // === Blocks and proposals ============================================

    /// The (fixed) payload of this node's block for `view`, first drawn for
    /// a block extending `parent`.
    fn view_payload(&mut self, view: View, parent: BlockId) -> Payload {
        if let Some(p) = self.payload_cache.get(&view) {
            return p.clone();
        }
        let p = self.chain.fresh_or_empty(parent, self.cfg.payloads.payload_for(view));
        self.payload_cache.insert(view, p.clone());
        p
    }

    /// Inserts a block, emits resulting commits, and — if the parent is
    /// missing — walks the chain backwards by fetching it from the child's
    /// proposer (backward state sync for nodes recovering from loss).
    fn store_block(&mut self, block: Block) {
        let parent = block.parent_id();
        let proposer = block.proposer();
        self.out.extend(self.chain.insert_block(block).into_iter().map(Output::Commit));
        if parent != moonshot_crypto::Digest::ZERO && !self.chain.tree.contains(parent) {
            self.fetcher.request(parent, [proposer], self.now, &mut self.out);
        }
    }

    /// Whether a proposal for `pv` from `from` carrying `block` is well
    /// formed: sent and built by `pv`'s leader, for `pv`, with a valid
    /// header. (That the payload matches its digest is the verifier's.)
    fn valid_proposal_shape(&self, from: NodeId, block: &Block, pv: View) -> bool {
        from == self.cfg.leader(pv)
            && block.proposer() == self.cfg.leader(pv)
            && block.view() == pv
            && block.header_is_valid()
    }

    /// The checks every proposal passes before a vote rule sees it, after
    /// the caller has taken in the certificates it embeds. A proposal for a
    /// future view is buffered; a malformed one is dropped; the block of a
    /// well-formed one is stored, stale or not — later certificates may need
    /// it. A compact proposal stands for the block its view's optimistic
    /// proposal delivered; if that has not arrived, the reference is parked
    /// until it does (see [`Replica::parked_compact`]). Only a proposal for
    /// the current view is handed back.
    pub(crate) fn admit(&mut self, from: NodeId, message: Message) -> Option<Proposal> {
        let (pv, _) = message.proposal()?;
        if pv > self.view {
            self.buffer(pv, from, message);
            return None;
        }
        let proposal = match message {
            Message::OptPropose { block, .. } => Proposal::Optimistic(block),
            Message::Propose { block, justify, .. } => Proposal::Normal(block, justify),
            Message::FbPropose { block, justify, tc, .. } if tc.view().next() == pv => {
                Proposal::Fallback(block, justify, tc)
            }
            Message::CompactPropose { block_id, justify, .. } if pv == self.view => {
                let Some(block) = self.chain.tree.get(block_id).cloned() else {
                    if from == self.cfg.leader(pv) {
                        self.pending_compact.insert(pv, (block_id, justify));
                    }
                    return None;
                };
                let valid = self.valid_proposal_shape(from, &block, pv);
                return valid.then_some(Proposal::Normal(block, justify));
            }
            _ => return None,
        };
        let (Proposal::Optimistic(block)
        | Proposal::Normal(block, _)
        | Proposal::Fallback(block, ..)) = &proposal;
        if !self.valid_proposal_shape(from, block, pv) {
            return None;
        }
        self.store_block(block.clone());
        (pv == self.view).then_some(proposal)
    }

    /// The justification of the compact proposal that was waiting for
    /// `block`, if one was.
    pub(crate) fn parked_compact(&mut self, block: &Block) -> Option<QuorumCertificate> {
        let (id, _) = self.pending_compact.get(&block.view())?;
        if *id != block.id() {
            return None;
        }
        self.pending_compact.remove(&block.view()).map(|(_, justify)| justify)
    }

    /// Proposes in the current view a block extending the one `justify`
    /// certifies: a fallback proposal when a `tc` goes with it; otherwise a
    /// normal one, sent as a reference if the block is bit-identical to
    /// this view's optimistic proposal (fixed payloads make it so), so the
    /// payload broadcast is not paid twice. The leader stores its own
    /// proposal first — it must be able to serve sync requests for it even
    /// if its loopback copy is lost.
    pub(crate) fn propose(&mut self, justify: QuorumCertificate, tc: Option<TimeoutCertificate>) {
        let view = self.view;
        let payload = self.view_payload(view, justify.block_id());
        let block = Block::from_parts(
            view,
            justify.block_height().child(),
            justify.block_id(),
            self.cfg.node_id,
            payload,
        );
        self.store_block(block.clone());
        self.multicast(match tc {
            Some(tc) => Message::FbPropose { block, justify, tc, view },
            None if self.opt_blocks.get(&view) == Some(&block.id()) => {
                Message::CompactPropose { block_id: block.id(), justify, view }
            }
            None => Message::Propose { block, justify, view },
        });
    }

    /// Optimistic Propose: as the leader of the next view, extends the
    /// block `voted` this node just voted for (or would have, had it been
    /// able to check its refs: a node still fetching the chain leads on
    /// time, with an empty block) without waiting for its certificate.
    /// Voting twice for one block (optimistic, then the mandatory normal
    /// vote) does not multicast the child twice; a node under its recovered
    /// vote floor has voted for nothing and extends nothing.
    pub(crate) fn propose_optimistic(&mut self, voted: &Block) {
        let next = self.view.next();
        if self.view <= self.vote_floor || !self.cfg.is_leader(next) {
            return;
        }
        let payload = self.view_payload(next, voted.id());
        let child = Block::build(next, self.cfg.node_id, voted, payload);
        if self.opt_blocks.insert(next, child.id()) != Some(child.id()) {
            self.store_block(child.clone());
            self.multicast(Message::OptPropose { block: child, view: next });
        }
    }

    /// Whether this node has multicast an optimistic proposal for `view`.
    pub(crate) fn proposed_optimistically(&self, view: View) -> bool {
        self.opt_blocks.contains_key(&view)
    }

    // === Voting ==========================================================

    /// Signs this view's vote for `block`, once the caller's vote rule has
    /// passed — or withholds it: under the recovered floor (the WAL says a
    /// previous incarnation may have voted in this view), or when the block
    /// would commit a batch twice, or might ([`ChainState::refs_are_fresh`]);
    /// the view's vote is spent all the same. Durability before release:
    /// the vote is on disk before it is returned (no-op without a ledger).
    /// The caller multicasts it or sends it to the next leader.
    pub(crate) fn vote(&mut self, kind: VoteKind, block: &Block) -> Option<SignedVote> {
        if self.view <= self.vote_floor
            || !self.chain.refs_are_fresh(block.parent_id(), block.payload())
        {
            return None;
        }
        self.cfg.persist_vote(self.view, self.chain.high_qc());
        let vote =
            Vote { kind, block_id: block.id(), block_height: block.height(), view: self.view };
        Some(SignedVote::sign(vote, self.cfg.node_id, &self.cfg.keypair))
    }

    // === Timeouts ========================================================

    /// Whether a timeout for `v` has been multicast.
    pub(crate) fn sent_timeout(&self, v: View) -> bool {
        self.sent_timeouts.contains(&v)
    }

    /// Persists, signs and multicasts a timeout for `v`, carrying the
    /// high-QC if `with_lock`. Sends again when called again: timeouts must
    /// survive lossy pre-GST networks, so the re-armed view timer repeats
    /// them.
    pub(crate) fn send_timeout(&mut self, v: View, with_lock: bool) {
        self.sent_timeouts.insert(v);
        self.cfg.persist_timeout(v, self.chain.high_qc());
        let lock = with_lock.then(|| self.chain.high_qc().clone());
        let st = SignedTimeout::sign(v, lock, self.cfg.node_id, &self.cfg.keypair);
        self.multicast(Message::Timeout(st));
    }

    // === Block sync ======================================================

    /// Answers a block request from the tree.
    pub(crate) fn serve_block(&mut self, to: NodeId, block_id: BlockId) {
        self.out.extend(sync::serve_request(&self.chain.tree, to, block_id));
    }

    /// Stores a block served by a peer (or by the local block store).
    pub(crate) fn on_block_response(&mut self, block: Block) {
        if sync::validate_response(&block, |v| self.cfg.leader(v)) {
            self.fetcher.fulfilled(block.id());
            self.store_block(block);
        }
    }

    /// Retries overdue block fetches ([`TimerToken::FetchTimer`]).
    pub(crate) fn on_fetch_timer(&mut self) {
        self.fetcher.on_timer(self.now, &mut self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ConsensusProtocol, Jolteon, LeaderElection, PipelinedMoonshot, RoundRobin, SimpleMoonshot,
    };

    const N: usize = 4;

    fn cfg() -> NodeConfig {
        NodeConfig::simulated(NodeId(3), N, SimDuration::from_millis(100))
    }

    fn buffered(core: &Replica) -> usize {
        core.pending.values().map(Vec::len).sum()
    }

    /// Floods `node` (in view 1) with 10 000 proposals for views 2, 3, …:
    /// first each from a node that does not lead that view, then from the
    /// views' leaders.
    fn flood<P: ConsensusProtocol>(mut node: P, core: impl Fn(&P) -> &Replica) {
        let _ = node.start(SimTime::ZERO);
        let proposal = |view: View, from: NodeId| {
            let block = Block::build(view, from, &Block::genesis(), Payload::empty());
            Message::Propose { block, justify: QuorumCertificate::genesis(), view }
        };
        let election = RoundRobin::new(N);
        let leader = |view: View| election.leader(view);
        for v in 2..10_002u64 {
            let not_leader = NodeId((leader(View(v)).0 + 1) % N as u16);
            let outs =
                node.handle_message(not_leader, proposal(View(v), not_leader), SimTime::ZERO);
            assert!(outs.is_empty());
        }
        assert_eq!(buffered(core(&node)), 0, "{}: non-leaders fill nothing", node.name());
        // From the leaders: 10 000 views once each, then the nearest views
        // over and over.
        for v in (2..10_002u64).chain((2..12).cycle().take(100)) {
            let from = leader(View(v));
            let outs = node.handle_message(from, proposal(View(v), from), SimTime::ZERO);
            assert!(outs.is_empty());
            assert!(buffered(core(&node)) <= BUFFER_VIEWS * BUFFER_PER_VIEW, "{}", node.name());
        }
        // What is kept is the nearest views, each up to its cap.
        let pending = &core(&node).pending;
        assert_eq!(pending.keys().next_back(), Some(&View(1 + BUFFER_VIEWS as u64)));
        assert_eq!(buffered(core(&node)), BUFFER_VIEWS * BUFFER_PER_VIEW, "{}", node.name());
        assert_eq!(node.current_view(), View(1));
    }

    #[test]
    fn future_view_buffer_is_authenticated_and_bounded() {
        flood(SimpleMoonshot::new(cfg()), |p| &p.core);
        flood(PipelinedMoonshot::new(cfg()), |p| &p.core);
        flood(Jolteon::new(cfg()), |p| &p.core);
    }
}
